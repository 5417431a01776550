// Command fixture is the fixture module's one product entry point.
package main

import "fixture/internal/b"

func main() { b.Print() }
