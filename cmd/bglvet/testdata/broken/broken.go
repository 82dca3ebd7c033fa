// Package broken fails to type-check: bglvet must stop on the go
// command's error instead of analyzing it.
package broken

var N int = "not an int"
