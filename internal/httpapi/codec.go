// The wire codec: hand-written encoders and a scanner for the shapes that
// cross the wire once per check-in — Worker and BatchRequest in, Receipt and
// BatchResponse out, Event on the SSE stream — over pooled buffers. The
// contract and the buffer-ownership rule are in the package comment
// (httpapi.go); this file holds the mechanism.

package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"ltc/internal/events"
)

// encodeJSON appends v's JSON to dst: through the shape's own appendJSON
// when it has one and it holds nothing the encoder leaves to encoding/json
// (a NaN or infinite float, a string that needs an escape), through
// json.Marshal otherwise — whose bytes the encoders reproduce and whose
// errors are therefore the only ones there are.
func encodeJSON(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(interface{ appendJSON([]byte) ([]byte, bool) }); ok {
		if out, ok := a.appendJSON(dst); ok {
			return out, nil
		}
	}
	data, err := json.Marshal(v)
	return append(dst, data...), err
}

// decodeJSON decodes the first JSON value of b into v, which is zero:
// through the shape's scanner when it has one and b is spelt the way the
// encoders spell it, through encoding/json on the same bytes otherwise.
func decodeJSON(b []byte, v any) error {
	if s, ok := v.(interface{ scanJSON([]byte) (int, bool) }); ok {
		if _, ok := s.scanJSON(b); ok {
			return nil
		}
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendFloat is encoding/json's float64 encoder: ES6 number formatting,
// 'e' below 1e-6 and from 1e21 with a two-digit negative exponent trimmed
// to one. NaN and the infinities are json.Marshal's to refuse.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// plain reports whether encoding/json writes (and reads) the string's bytes
// as they are: printable ASCII without the quote, the backslash and the
// three characters its HTML escaping rewrites.
func plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func (w Worker) appendJSON(dst []byte) ([]byte, bool) {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(w.Index), 10)
	dst, okX := appendFloat(append(dst, `,"x":`...), w.X)
	dst, okY := appendFloat(append(dst, `,"y":`...), w.Y)
	dst, okAcc := appendFloat(append(dst, `,"acc":`...), w.Acc)
	return append(dst, '}'), okX && okY && okAcc
}

func (r BatchRequest) appendJSON(dst []byte) ([]byte, bool) {
	if r.Workers == nil {
		return append(dst, `{"workers":null}`...), true
	}
	dst = append(dst, `{"workers":[`...)
	for i, w := range r.Workers {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = w.appendJSON(dst); !ok {
			return dst, false
		}
	}
	return append(dst, "]}"...), true
}

func (r Receipt) appendJSON(dst []byte) ([]byte, bool) {
	dst = strconv.AppendInt(append(dst, `{"worker":`...), int64(r.Worker), 10)
	dst = strconv.AppendInt(append(dst, `,"shard":`...), int64(r.Shard), 10)
	for i, g := range r.Assignments {
		if i == 0 {
			dst = append(dst, `,"assignments":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"task":`...), int64(g.Task), 10)
		var ok bool
		if dst, ok = appendFloat(append(dst, `,"credit":`...), g.Credit); !ok {
			return dst, false
		}
		dst = append(appendBool(append(dst, `,"completed":`...), g.Completed), '}')
	}
	if len(r.Assignments) > 0 {
		dst = append(dst, ']')
	}
	dst = appendBool(append(dst, `,"done":`...), r.Done)
	if r.Bounced {
		dst = append(dst, `,"bounced":true`...)
	}
	return append(dst, '}'), true
}

func (r BatchResponse) appendJSON(dst []byte) ([]byte, bool) {
	if r.Receipts == nil {
		dst = append(dst, `{"receipts":null`...)
	} else {
		dst = append(dst, `{"receipts":[`...)
		for i, rec := range r.Receipts {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = rec.appendJSON(dst); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	return append(appendBool(append(dst, `,"done":`...), r.Done), '}'), true
}

func (e Event) appendJSON(dst []byte) ([]byte, bool) {
	dst = strconv.AppendUint(append(dst, `{"seq":`...), e.Seq, 10)
	dst = append(append(append(dst, `,"kind":"`...), e.Kind...), '"')
	dst = strconv.AppendInt(append(dst, `,"task":`...), int64(e.Task), 10)
	for _, f := range [...]struct {
		key string
		v   int
	}{{`,"worker":`, e.Worker}, {`,"post_index":`, e.PostIndex}, {`,"tile":`, e.Tile},
		{`,"from_shard":`, e.FromShard}, {`,"to_shard":`, e.ToShard}} {
		if f.v != 0 {
			dst = strconv.AppendInt(append(dst, f.key...), int64(f.v), 10)
		}
	}
	return append(dst, '}'), plain(e.Kind)
}

// appendFrame appends e's Server-Sent Events frame: the event name, the JSON
// event as the one data line, and the blank line that dispatches it.
func appendFrame(dst []byte, e Event) []byte {
	dst = append(append(append(dst, "event: "...), e.Kind...), "\ndata: "...)
	if out, ok := e.appendJSON(dst); ok { // called here, not through encodeJSON: no boxing
		dst = out
	} else {
		dst, _ = encodeJSON(dst, e) // an Event holds nothing json.Marshal refuses
	}
	return append(dst, "\n\n"...)
}

// scan reads the encoders' spelling of the wire shapes — any whitespace and
// key order, the lower-case keys spelt exactly, plain strings, integers of
// at most maxIntDigits digits — and refuses, by returning false, everything
// else: an escape, another spelling of a key, an unknown or repeated field,
// null, a fraction where an integer goes, a truncated value. It accepts only
// what encoding/json accepts and then produces what encoding/json produces;
// what it refuses decodeJSON hands to encoding/json, so the two cannot be
// told apart from outside. FuzzWireCodec holds it to that.
type scan struct {
	b []byte
	i int
	// grants is the block every receipt's Assignments of one response are
	// cut from.
	grants []Grant
}

// maxIntDigits is the most digits that cannot overflow an int.
const maxIntDigits = 9 + 9*(strconv.IntSize/64)

func (s *scan) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

// token skips whitespace and consumes c if it comes next.
func (s *scan) token(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// more steps to the next element of an object or array that ends with
// closer; first is true before the first one.
func (s *scan) more(closer byte, first bool) (more, ok bool) {
	if s.token(closer) {
		return false, true
	}
	return true, first || s.token(',')
}

// quoted reads a string up to its first quote. An escaped quote ends it
// early, at a backslash that no key has and no plain string.
func (s *scan) quoted() (str []byte, ok bool) {
	if !s.token('"') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, false
	}
	str = s.b[s.i : s.i+end]
	s.i += end + 1
	return str, true
}

// object reads an object, calling field with each key and the scanner on
// its value.
func (s *scan) object(field func(key []byte) bool) bool {
	if !s.token('{') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.more('}', first)
		if !more || !ok {
			return ok
		}
		key, ok := s.quoted()
		if !ok || !s.token(':') || !field(key) {
			return false
		}
	}
}

// array reads an array, calling elem on each element.
func (s *scan) array(elem func() bool) bool {
	if !s.token('[') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.more(']', first)
		if !more || !ok {
			return ok
		}
		if !elem() {
			return false
		}
	}
}

// at reports whether the next byte is one of set's.
func (s *scan) at(set string) bool {
	return s.i < len(s.b) && strings.IndexByte(set, s.b[s.i]) >= 0
}

// digits consumes a run of digits and returns how many.
func (s *scan) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// integer consumes the integer part of a JSON number: a zero, or digits that
// do not start with one.
func (s *scan) integer() bool {
	start := s.i
	n := s.digits()
	return n == 1 || n > 1 && s.b[start] != '0'
}

func (s *scan) uint(v *uint64) bool {
	s.space()
	return s.natural(v)
}

// natural reads an integer without a sign, a fraction or an exponent.
func (s *scan) natural(v *uint64) bool {
	start := s.i
	if !s.integer() || s.i-start > maxIntDigits || s.at(".eE") {
		return false
	}
	*v = 0
	for _, c := range s.b[start:s.i] {
		*v = *v*10 + uint64(c-'0')
	}
	return true
}

func (s *scan) int(v *int) bool {
	s.space()
	neg := s.at("-")
	if neg {
		s.i++
	}
	var u uint64
	if !s.natural(&u) {
		return false
	}
	if *v = int(u); neg {
		*v = -*v
	}
	return true
}

func (s *scan) float(v *float64) bool {
	s.space()
	start := s.i
	if s.at("-") {
		s.i++
	}
	if !s.integer() {
		return false
	}
	if s.at(".") {
		if s.i++; s.digits() == 0 {
			return false
		}
	}
	if s.at("eE") {
		if s.i++; s.at("+-") {
			s.i++
		}
		if s.digits() == 0 {
			return false
		}
	}
	// strconv keeps its argument off the heap. A literal that does not fit a
	// float64 is encoding/json's to report.
	var err error
	*v, err = strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return err == nil
}

func (s *scan) bool(v *bool) bool {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*v, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*v, s.i = false, s.i+5
	default:
		return false
	}
	return true
}

// kindNames are the strings an event's kind is one of, so that reading one
// allocates nothing.
var kindNames = func() (names []string) {
	for k := events.TaskPosted; k <= events.TileMigrated; k++ {
		names = append(names, k.String())
	}
	return names
}()

func (s *scan) kind(v *string) bool {
	str, ok := s.quoted()
	if !ok || !plain(str) {
		return false
	}
	for _, name := range kindNames {
		if string(str) == name {
			*v = name
			return true
		}
	}
	*v = string(str)
	return true
}

func (s *scan) worker(w *Worker) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "index":
			return s.int(&w.Index)
		case "x":
			return s.float(&w.X)
		case "y":
			return s.float(&w.Y)
		case "acc":
			return s.float(&w.Acc)
		}
		return false
	})
}

func (s *scan) grant(g *Grant) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "task":
			return s.int(&g.Task)
		case "credit":
			return s.float(&g.Credit)
		case "completed":
			return s.bool(&g.Completed)
		}
		return false
	})
}

// receipt cuts r.Assignments from s.grants, clipped so that a caller's
// append cannot reach the next receipt's.
func (s *scan) receipt(r *Receipt) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "worker":
			return s.int(&r.Worker)
		case "shard":
			return s.int(&r.Shard)
		case "assignments":
			start := len(s.grants)
			ok := r.Assignments == nil && s.array(func() bool {
				s.grants = append(s.grants, Grant{})
				return s.grant(&s.grants[len(s.grants)-1])
			})
			r.Assignments = s.grants[start:len(s.grants):len(s.grants)]
			if r.Assignments == nil {
				r.Assignments = []Grant{}
			}
			return ok
		case "done":
			return s.bool(&r.Done)
		case "bounced":
			return s.bool(&r.Bounced)
		}
		return false
	})
}

// objects bounds the number of objects inside b's outermost one — exactly,
// when b is spelt the way the encoders spell it — by the number that fit:
// the capacity to decode into, which what b says cannot inflate.
func objects(b []byte, smallest string) int {
	return max(0, min(bytes.Count(b, []byte("{"))-1, len(b)/len(smallest)))
}

func (w *Worker) scanJSON(b []byte) (int, bool) {
	s, v := scan{b: b}, Worker{}
	if !s.worker(&v) {
		return 0, false
	}
	*w = v
	return s.i, true
}

func (r *BatchRequest) scanJSON(b []byte) (int, bool) {
	s, v := scan{b: b}, BatchRequest{}
	if !s.object(func(key []byte) bool {
		if string(key) != "workers" || v.Workers != nil {
			return false
		}
		v.Workers = make([]Worker, 0, objects(b, `{"index":0,"x":0,"y":0,"acc":0},`))
		return s.array(func() bool {
			v.Workers = append(v.Workers, Worker{})
			return s.worker(&v.Workers[len(v.Workers)-1])
		})
	}) {
		return 0, false
	}
	*r = v
	return s.i, true
}

func (r *Receipt) scanJSON(b []byte) (int, bool) {
	s, v := scan{b: b}, Receipt{}
	if !s.receipt(&v) {
		return 0, false
	}
	*r = v
	return s.i, true
}

func (r *BatchResponse) scanJSON(b []byte) (int, bool) {
	s, v := scan{b: b}, BatchResponse{}
	if !s.object(func(key []byte) bool {
		switch string(key) {
		case "receipts":
			if v.Receipts != nil {
				return false
			}
			// The encoders write a 'w' once per receipt, in "worker", and
			// every other inner object is a grant. In any other spelling
			// these are capacities, no more.
			n := objects(b, `{"task":0,"credit":0,"completed":true},`)
			receipts := min(n, bytes.Count(b, []byte("w")))
			v.Receipts = make([]Receipt, 0, receipts)
			s.grants = make([]Grant, 0, n-receipts)
			return s.array(func() bool {
				v.Receipts = append(v.Receipts, Receipt{})
				return s.receipt(&v.Receipts[len(v.Receipts)-1])
			})
		case "done":
			return s.bool(&v.Done)
		}
		return false
	}) {
		return 0, false
	}
	*r = v
	return s.i, true
}

func (e *Event) scanJSON(b []byte) (int, bool) {
	s, v := scan{b: b}, Event{}
	if !s.object(func(key []byte) bool {
		switch string(key) {
		case "seq":
			return s.uint(&v.Seq)
		case "kind":
			return s.kind(&v.Kind)
		case "task":
			return s.int(&v.Task)
		case "worker":
			return s.int(&v.Worker)
		case "post_index":
			return s.int(&v.PostIndex)
		case "tile":
			return s.int(&v.Tile)
		case "from_shard":
			return s.int(&v.FromShard)
		case "to_shard":
			return s.int(&v.ToShard)
		}
		return false
	}) {
		return 0, false
	}
	*e = v
	return s.i, true
}

// maxPooled is the largest buffer the pool takes back: a 64-worker batch
// response is 9 KB, and one oversized body must not sit in the pool for
// good.
const maxPooled = 64 << 10

// wireBuf is a pooled buffer for one body. See "Buffers" in the package
// comment for who may hold one and until when.
type wireBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(wireBuf) }}

func getBuf() *wireBuf { return bufPool.Get().(*wireBuf) }

func putBuf(buf *wireBuf) {
	if cap(buf.b) <= maxPooled {
		buf.b = buf.b[:0]
		bufPool.Put(buf)
	}
}

// readAll reads r to its end into the buffer, which is empty.
func (buf *wireBuf) readAll(r io.Reader) error {
	for {
		if len(buf.b) == cap(buf.b) {
			buf.b = append(buf.b, 0)[:len(buf.b)]
		}
		n, err := r.Read(buf.b[len(buf.b):cap(buf.b)])
		buf.b = buf.b[:len(buf.b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
