// Package types implements the SQL value system used throughout the engine:
// typed scalar values with NULL, three-valued logic, a total order per type,
// hashing for join/grouping, and the arithmetic and string operations the
// expression evaluator needs.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the runtime type of a Value.
type Type uint8

// The supported SQL types. Null is modeled as its own type so that an unset
// Value is a well-formed NULL.
const (
	NullType Type = iota
	IntType
	FloatType
	StringType
	BoolType
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case NullType:
		return "NULL"
	case IntType:
		return "INTEGER"
	case FloatType:
		return "FLOAT"
	case StringType:
		return "VARCHAR"
	case BoolType:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name (as written in DDL) to a Type.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return IntType, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return FloatType, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return StringType, nil
	case "BOOLEAN", "BOOL":
		return BoolType, nil
	default:
		return NullType, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{T: IntType, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{T: FloatType, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{T: StringType, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{T: BoolType}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.T == NullType }

// Bool returns the boolean payload; callers must check the type first.
func (v Value) Bool() bool { return v.T == BoolType && v.I != 0 }

// Int returns the integer payload, coercing FLOAT and BOOLEAN.
func (v Value) Int() int64 {
	switch v.T {
	case IntType, BoolType:
		return v.I
	case FloatType:
		return int64(v.F)
	default:
		return 0
	}
}

// Float returns the numeric payload as float64, coercing INTEGER.
func (v Value) Float() float64 {
	switch v.T {
	case FloatType:
		return v.F
	case IntType, BoolType:
		return float64(v.I)
	default:
		return 0
	}
}

// IsNumeric reports whether v is INTEGER or FLOAT.
func (v Value) IsNumeric() bool { return v.T == IntType || v.T == FloatType }

// String renders the value the way the REPL and test goldens print it.
func (v Value) String() string {
	switch v.T {
	case NullType:
		return "NULL"
	case IntType:
		return strconv.FormatInt(v.I, 10)
	case FloatType:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case StringType:
		return v.S
	case BoolType:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
// The cache write-back path uses it to generate DML.
func (v Value) SQLLiteral() string {
	if v.T == StringType {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// Compare defines a total order over values: NULL sorts first, then by
// numeric value (INTEGER and FLOAT compare cross-type), then strings, then
// booleans. It returns -1, 0 or +1. Comparing a string against a number
// orders by type tag, which keeps the order total for sorting; predicate
// evaluation rejects such comparisons earlier during type checking.
func Compare(a, b Value) int {
	if a.T == NullType || b.T == NullType {
		switch {
		case a.T == b.T:
			return 0
		case a.T == NullType:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.T == IntType && b.T == IntType {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.T != b.T {
		switch {
		case a.T < b.T:
			return -1
		default:
			return 1
		}
	}
	switch a.T {
	case StringType:
		return strings.Compare(a.S, b.S)
	case BoolType:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	return 0
}

// Equal reports SQL equality ignoring the NULL semantics (NULL equals NULL
// here; the evaluator applies three-valued logic before calling this).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// HashOffset is the FNV-1a 64-bit offset basis every value and row hash
// starts from; hashPrime is the matching FNV prime.
const (
	HashOffset uint64 = 14695981039346656037
	hashPrime  uint64 = 1099511628211
)

// Hash returns a hash consistent with Equal: integers and floats holding the
// same numeric value hash identically so cross-type equi-joins work. It is
// FNV-1a over a tag byte (0 NULL, 1 number or boolean, 2 string) followed by
// the payload — the eight little-endian bytes of the integer (or of a
// non-integral float's bits), or the string's bytes — computed inline, so
// it never allocates.
func (v Value) Hash() uint64 {
	h := HashOffset
	switch v.T {
	case NullType:
		h ^= 0
		h *= hashPrime
	case StringType:
		h ^= 2
		h *= hashPrime
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= hashPrime
		}
	default:
		u := uint64(v.I)
		if v.T == FloatType {
			f := v.F
			if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
				// Hash integral floats like the equivalent integer.
				u = uint64(int64(f))
			} else {
				u = math.Float64bits(f)
			}
		}
		h ^= 1
		h *= hashPrime
		h = MixHash(h, u)
	}
	return h
}

// MixHash folds the eight little-endian bytes of u into a running FNV-1a
// state. Row hashes mix their column hashes this way.
func MixHash(h, u uint64) uint64 {
	for b := 0; b < 8; b++ {
		h ^= u & 0xff
		h *= hashPrime
		u >>= 8
	}
	return h
}
