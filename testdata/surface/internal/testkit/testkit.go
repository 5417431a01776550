// Package testkit is imported only by tests: a test-support package,
// whose exports are exempt.
package testkit

// Fixture is called only by package b's test: not flagged.
func Fixture() string { return "f" }
