// Package b is the product code that uses package a.
package b

import (
	"fmt"

	"fixture/internal/a"
)

// Print prints an a.T through fmt.
func Print() { fmt.Println(a.T{}, a.Used()) }
