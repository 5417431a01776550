// Package gom implements the Generic Object Model (GOM) of Kemper and
// Moerkotte ("Access Support in Object Bases", SIGMOD 1990, §2): a
// strongly typed object model with object identity, tuple/set/list type
// constructors, multiple inheritance, and path expressions over reference
// chains. It is the substrate on which access support relations
// (package asr) are defined.
//
// An ObjectBase serves any number of reading goroutines beside one
// writer; see ObjectBase for the locking rules.
package gom

import (
	"fmt"
	"strconv"
)

// OID is a system-generated object identifier. It is invariant for the
// lifetime of an object and never reused within one ObjectBase. The zero
// value NilOID represents the NULL reference (the undefined value of a
// reference attribute).
type OID uint64

// NilOID is the NULL object reference.
const NilOID OID = 0

// IsNil reports whether the OID is the NULL reference.
func (id OID) IsNil() bool { return id == NilOID }

// String renders the identifier in the paper's i_k notation; NilOID
// renders as "NULL".
func (id OID) String() string {
	if id == NilOID {
		return "NULL"
	}
	return "i" + strconv.FormatUint(uint64(id), 10)
}

// GoString implements fmt.GoStringer for readable test failure output.
func (id OID) GoString() string { return fmt.Sprintf("gom.OID(%d)", uint64(id)) }
