// Command b reaches package a's exports.
package main

import (
	"fmt"

	"censusfix/a"
)

func main() {
	var s a.Shape = a.T{}
	var lonely a.Lonely
	fmt.Println(a.Called(), s.Area(), a.T{}, a.Lit{Set: 1}, lonely)
}
