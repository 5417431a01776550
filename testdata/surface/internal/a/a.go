// Package a holds one declaration of each kind the dead-surface check
// tells apart.
package a

// Used is called by package b.
func Used() int { return 1 }

// Dead is referenced by nothing: flagged.
func Dead() {}

// Own is called only by a's own test: flagged.
func Own() {}

// Helper is called only by package b's test: flagged, since only
// product code counts as a caller.
func Helper() string { return "h" }

// T is used by package b.
type T struct{}

// String satisfies fmt.Stringer and is never called directly: fmt calls
// it, so it is not flagged.
func (T) String() string { return "T" }
