// Command caller uses package exports.
package main

import "ltc/internal/lint/testdata/src/exports"

func main() {
	exports.Called()
	exports.Exec(&exports.Impl{})
	_ = exports.Other{}
}
