package vexec

import (
	"strings"

	"xnf/internal/colstore"
	"xnf/internal/enc"
	"xnf/internal/types"
)

// This file holds the typed execution protocol: expressions that can
// produce (or consume) typed vectors run tight non-interface loops over
// []int64/[]float64/[]string payloads with null bitmaps as masks, and fall
// back to the boxed evaluator for everything they cannot prove safe. The
// fallback is always semantically complete — typed kernels only ever handle
// cases whose result (including error behavior) is identical to the boxed
// path, so the two forms cannot drift.

// typedEvaluator is implemented by expressions that can yield a typed
// vector. A nil result with a nil error means the expression (or its inputs
// for this batch) has no typed form; callers then use boxed eval.
type typedEvaluator interface {
	evalTyped(e *env, b *Batch, sel []int) (*TypedVec, error)
}

// evalTypedOf attempts typed evaluation of any expression.
func evalTypedOf(x VExpr, e *env, b *Batch, sel []int) (*TypedVec, error) {
	if t, ok := x.(typedEvaluator); ok {
		return t.evalTyped(e, b, sel)
	}
	return nil, nil
}

// scalarOf resolves an expression that is constant for the whole execution
// — a literal or a parameter — to its value.
func scalarOf(x VExpr, e *env) (types.Value, bool) {
	switch n := x.(type) {
	case *vConst:
		return n.v, true
	case *vParam:
		if n.idx < len(e.params) {
			return e.params[n.idx], true
		}
	case *vTail:
		if idx := len(e.params) - 1 - n.back; idx >= 0 {
			return e.params[idx], true
		}
	}
	return types.Value{}, false
}

// evalTyped on a slot hands the batch's typed column through untouched.
func (s *vSlot) evalTyped(e *env, b *Batch, sel []int) (*TypedVec, error) {
	if s.idx < len(b.Typed) {
		return b.Typed[s.idx], nil
	}
	return nil, nil
}

// decodeVec materializes an encoded typed vector into a raw arena vector,
// filling only the rows in sel (entries outside it are unspecified,
// matching the vector contract). Raw vectors pass through untouched.
// The null bitmap is copied: the input's belongs to an immutable segment
// view, while arena vectors own — and pool — their bitmaps.
func decodeVec(e *env, tv *TypedVec, sel []int, n int) *TypedVec {
	if !tv.Encoded() {
		return tv
	}
	out := e.getTyped(tv.Typ, n)
	if tv.Dict != nil {
		for _, i := range sel {
			out.Strs[i] = tv.Dict.At(i)
		}
	} else {
		for _, i := range sel {
			out.Ints[i] = tv.Pack.At(i)
		}
	}
	if tv.Nulls != nil {
		nb := e.getNulls(n)
		copy(nb, tv.Nulls)
		out.Nulls = nb
	}
	return out
}

// --- typed comparison kernels ---

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	// Mirrors types.Compare: NaN compares "equal" to everything because both
	// orderings are false.
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func flipOpc(opc int) int {
	switch opc {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	default:
		return opc
	}
}

// evalTriTyped is the unboxed fast path of vCmp.evalTri: when the left side
// has a typed form and the right side is an execution-time scalar or
// another typed vector of a comparable type, the comparison runs as a tight
// loop over the payload arrays with the null bitmaps as Unknown masks.
// done is false when the shape is not covered; the caller then runs the
// boxed path (which also owns all error cases).
func (c *vCmp) evalTriTyped(e *env, b *Batch, sel []int, out []types.TriBool) (done bool, err error) {
	lt, err := evalTypedOf(c.l, e, b, sel)
	if err != nil {
		return false, err
	}
	if lt != nil {
		if k, ok := scalarOf(c.r, e); ok {
			done = cmpTypedScalar(c.opc, lt, k, sel, out)
			if done && lt.Encoded() {
				e.encodedCmp(len(sel))
			}
			return done, nil
		}
		rt, err := evalTypedOf(c.r, e, b, sel)
		if err != nil {
			return false, err
		}
		if rt != nil {
			// Column-vs-column compares see encoded inputs only decoded:
			// the two sides never share a code space.
			lt = decodeVec(e, lt, sel, b.N)
			rt = decodeVec(e, rt, sel, b.N)
			return cmpTypedTyped(c.opc, lt, rt, sel, out), nil
		}
		return false, nil
	}
	// Scalar on the left, typed column on the right: flip the operator.
	if k, ok := scalarOf(c.l, e); ok {
		rt, err := evalTypedOf(c.r, e, b, sel)
		if err != nil {
			return false, err
		}
		if rt != nil {
			done = cmpTypedScalar(flipOpc(c.opc), rt, k, sel, out)
			if done && rt.Encoded() {
				e.encodedCmp(len(sel))
			}
			return done, nil
		}
	}
	return false, nil
}

// cmpDictScalar compares a dictionary-encoded VARCHAR column against a
// string constant without touching a single string: one binary search
// locates the constant in the sorted dictionary, then every row is an
// integer compare on codes. When the constant is absent, codes at or past
// its insertion position sort after it and everything below sorts before,
// so all six operators still reduce to the code ordering.
func cmpDictScalar(opc int, l *TypedVec, kv string, sel []int, out []types.TriBool) {
	d := l.Dict
	pos, found := d.Find(kv)
	p := uint64(pos)
	nulls := l.Nulls
	if n := len(sel); nulls == nil && n > 0 && n == d.Len() && sel[n-1] == n-1 &&
		cmpDictDense(opc, &d.Codes, p, found, out) {
		return
	}
	for _, i := range sel {
		if nulls != nil && nulls.Get(i) {
			out[i] = types.Unknown
			continue
		}
		code := d.Codes.Get(i)
		var c int
		switch {
		case found:
			c = cmpInt(int64(code), int64(p))
		case code >= p:
			c = 1
		default:
			c = -1
		}
		out[i] = types.Tri(cmpHolds(opc, c))
	}
}

// cmpDictDense is cmpDictScalar over every slot of a NULL-free segment,
// the hot loop of a string-equality scan: it shifts the codes out of each
// packed word in turn instead of locating every code on its own, and looks
// the outcome up by the code's side of the constant's position (below, at,
// above). false, with out untouched, when the code width does not divide
// 64 — codes then straddle words and the per-slot loop decodes them.
func cmpDictDense(opc int, codes *enc.BitVec, p uint64, found bool, out []types.TriBool) bool {
	w := uint(codes.W)
	if w == 0 || 64%w != 0 {
		return false
	}
	atPos := 1 // an absent constant sorts before the code at its position
	if found {
		atPos = 0
	}
	res := [3]types.TriBool{
		types.Tri(cmpHolds(opc, -1)),
		types.Tri(cmpHolds(opc, atPos)),
		types.Tri(cmpHolds(opc, 1)),
	}
	per := int(64 / w)
	mask := uint64(1)<<w - 1
	n := codes.N
	for wi, word := range codes.Words {
		for i := wi * per; i < min((wi+1)*per, n); i++ {
			code := word & mask
			word >>= w
			k := 0
			if code >= p {
				k++
			}
			if code > p {
				k++
			}
			out[i] = res[k]
		}
	}
	return true
}

// cmpPackScalar compares a bit-packed INTEGER/BOOLEAN column against a
// constant of a covered type, decoding each code with one shift/mask;
// false when the pairing stays on the boxed path.
func cmpPackScalar(opc int, l *TypedVec, k types.Value, sel []int, out []types.TriBool) bool {
	p := l.Pack
	nulls := l.Nulls
	switch {
	case l.Typ == types.IntType && k.T == types.IntType,
		l.Typ == types.BoolType && k.T == types.BoolType:
		kv := k.I
		for _, i := range sel {
			if nulls != nil && nulls.Get(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpInt(p.At(i), kv)))
			}
		}
		return true
	case l.Typ == types.IntType && k.T == types.FloatType:
		kv := k.F
		for _, i := range sel {
			if nulls != nil && nulls.Get(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpFloat(float64(p.At(i)), kv)))
			}
		}
		return true
	}
	return false
}

// cmpTypedScalar fills out with `col <opc> k` for the rows in sel; false
// when the column/scalar type pairing is not covered (the boxed path then
// reproduces exact semantics, including comparison type errors).
func cmpTypedScalar(opc int, l *TypedVec, k types.Value, sel []int, out []types.TriBool) bool {
	if k.IsNull() {
		for _, i := range sel {
			out[i] = types.Unknown
		}
		return true
	}
	nulls := l.Nulls
	switch l.Typ {
	case types.IntType:
		if l.Pack != nil {
			return cmpPackScalar(opc, l, k, sel, out)
		}
		switch k.T {
		case types.IntType:
			kv := k.I
			if nulls == nil {
				for _, i := range sel {
					out[i] = types.Tri(cmpHolds(opc, cmpInt(l.Ints[i], kv)))
				}
			} else {
				for _, i := range sel {
					if nulls.Get(i) {
						out[i] = types.Unknown
					} else {
						out[i] = types.Tri(cmpHolds(opc, cmpInt(l.Ints[i], kv)))
					}
				}
			}
			return true
		case types.FloatType:
			kv := k.F
			if nulls == nil {
				for _, i := range sel {
					out[i] = types.Tri(cmpHolds(opc, cmpFloat(float64(l.Ints[i]), kv)))
				}
			} else {
				for _, i := range sel {
					if nulls.Get(i) {
						out[i] = types.Unknown
					} else {
						out[i] = types.Tri(cmpHolds(opc, cmpFloat(float64(l.Ints[i]), kv)))
					}
				}
			}
			return true
		}
	case types.FloatType:
		if !k.IsNumeric() {
			return false
		}
		kv := k.Float()
		if nulls == nil {
			for _, i := range sel {
				out[i] = types.Tri(cmpHolds(opc, cmpFloat(l.Floats[i], kv)))
			}
		} else {
			for _, i := range sel {
				if nulls.Get(i) {
					out[i] = types.Unknown
				} else {
					out[i] = types.Tri(cmpHolds(opc, cmpFloat(l.Floats[i], kv)))
				}
			}
		}
		return true
	case types.StringType:
		if k.T != types.StringType {
			return false
		}
		if l.Dict != nil {
			cmpDictScalar(opc, l, k.S, sel, out)
			return true
		}
		kv := k.S
		for _, i := range sel {
			if nulls != nil && nulls.Get(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, strings.Compare(l.Strs[i], kv)))
			}
		}
		return true
	case types.BoolType:
		if k.T != types.BoolType {
			return false
		}
		if l.Pack != nil {
			return cmpPackScalar(opc, l, k, sel, out)
		}
		kv := k.I
		for _, i := range sel {
			if nulls != nil && nulls.Get(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpInt(l.Ints[i], kv)))
			}
		}
		return true
	}
	return false
}

// cmpTypedTyped fills out with `l <opc> r` element-wise for the rows in
// sel; false when the type pairing is not covered.
func cmpTypedTyped(opc int, l, r *TypedVec, sel []int, out []types.TriBool) bool {
	ln, rn := l.Nulls, r.Nulls
	isNull := func(i int) bool {
		return (ln != nil && ln.Get(i)) || (rn != nil && rn.Get(i))
	}
	switch {
	case l.Typ == types.IntType && r.Typ == types.IntType,
		l.Typ == types.BoolType && r.Typ == types.BoolType:
		for _, i := range sel {
			if isNull(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpInt(l.Ints[i], r.Ints[i])))
			}
		}
	case l.Typ == types.FloatType && r.Typ == types.FloatType:
		for _, i := range sel {
			if isNull(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpFloat(l.Floats[i], r.Floats[i])))
			}
		}
	case l.Typ == types.IntType && r.Typ == types.FloatType:
		for _, i := range sel {
			if isNull(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpFloat(float64(l.Ints[i]), r.Floats[i])))
			}
		}
	case l.Typ == types.FloatType && r.Typ == types.IntType:
		for _, i := range sel {
			if isNull(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, cmpFloat(l.Floats[i], float64(r.Ints[i]))))
			}
		}
	case l.Typ == types.StringType && r.Typ == types.StringType:
		for _, i := range sel {
			if isNull(i) {
				out[i] = types.Unknown
			} else {
				out[i] = types.Tri(cmpHolds(opc, strings.Compare(l.Strs[i], r.Strs[i])))
			}
		}
	default:
		return false
	}
	return true
}

// --- typed arithmetic kernels ---

// numOp is one side of a typed arithmetic kernel: an int64 or float64
// vector with its null bitmap, or an execution-time scalar. Accessor
// methods compile to branch-predictable inline code.
type numOp struct {
	ints   []int64
	floats []float64
	nulls  colstore.Bitmap
	k      types.Value
	scalar bool
}

func (o *numOp) null(i int) bool {
	if o.scalar {
		return o.k.IsNull()
	}
	return o.nulls != nil && o.nulls.Get(i)
}

func (o *numOp) intAt(i int) int64 {
	if o.scalar {
		return o.k.I
	}
	return o.ints[i]
}

func (o *numOp) floatAt(i int) float64 {
	if o.scalar {
		return o.k.Float()
	}
	if o.ints != nil {
		return float64(o.ints[i])
	}
	return o.floats[i]
}

// intish reports whether the operand keeps a pure-integer kernel integral:
// an int64 vector, an INTEGER scalar, or a NULL scalar (which nulls every
// result row regardless of kernel type).
func (o *numOp) intish() bool {
	if o.scalar {
		return o.k.T == types.IntType || o.k.IsNull()
	}
	return o.ints != nil
}

// numOperandOf resolves x to a numeric kernel operand. ok is false for
// non-numeric shapes — string concatenation, booleans, unsupported
// expressions — which stay on the boxed path with its exact error behavior.
func numOperandOf(x VExpr, e *env, b *Batch, sel []int) (numOp, bool, error) {
	if k, ok := scalarOf(x, e); ok {
		if k.IsNull() || k.IsNumeric() {
			return numOp{k: k, scalar: true}, true, nil
		}
		return numOp{}, false, nil
	}
	tv, err := evalTypedOf(x, e, b, sel)
	if err != nil || tv == nil {
		return numOp{}, false, err
	}
	switch tv.Typ {
	case types.IntType:
		if tv.Pack != nil {
			tv = decodeVec(e, tv, sel, b.N)
		}
		return numOp{ints: tv.Ints, nulls: tv.Nulls}, true, nil
	case types.FloatType:
		return numOp{floats: tv.Floats, nulls: tv.Nulls}, true, nil
	}
	return numOp{}, false, nil
}

// evalTyped runs +, -, *, / and % as unboxed loops when both operands are
// numeric typed vectors or scalars. Semantics mirror types.Arith exactly:
// NULL operands yield NULL, int op int stays int (wrapping like Go),
// anything touching a float is computed in float64, integer division by
// zero (and float division by zero, and float %) raise the same errors.
func (a *vArith) evalTyped(e *env, b *Batch, sel []int) (*TypedVec, error) {
	switch a.op {
	case "+", "-", "*", "/", "%":
	default:
		return nil, nil
	}
	l, ok, err := numOperandOf(a.l, e, b, sel)
	if err != nil || !ok {
		return nil, err
	}
	r, ok, err := numOperandOf(a.r, e, b, sel)
	if err != nil || !ok {
		return nil, err
	}
	if l.intish() && r.intish() {
		return intArith(e, a.op, &l, &r, sel, b.N)
	}
	return floatArith(e, a.op, &l, &r, sel, b.N)
}

// arithErr reproduces the exact types.Arith error for an element pair.
func arithErr(op string, l, r types.Value) error {
	_, err := types.Arith(op, l, r)
	return err
}

func intArith(e *env, op string, l, r *numOp, sel []int, n int) (*TypedVec, error) {
	out := e.getTyped(types.IntType, n)
	var nulls colstore.Bitmap
	setNull := func(i int) {
		if nulls == nil {
			nulls = e.getNulls(n)
		}
		nulls.Set(i)
		out.Ints[i] = 0
	}
	switch op {
	case "+":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			out.Ints[i] = l.intAt(i) + r.intAt(i)
		}
	case "-":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			out.Ints[i] = l.intAt(i) - r.intAt(i)
		}
	case "*":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			out.Ints[i] = l.intAt(i) * r.intAt(i)
		}
	case "/":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			y := r.intAt(i)
			if y == 0 {
				return nil, arithErr(op, types.NewInt(l.intAt(i)), types.NewInt(0))
			}
			out.Ints[i] = l.intAt(i) / y
		}
	default: // "%"
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			y := r.intAt(i)
			if y == 0 {
				return nil, arithErr(op, types.NewInt(l.intAt(i)), types.NewInt(0))
			}
			out.Ints[i] = l.intAt(i) % y
		}
	}
	out.Nulls = nulls
	return out, nil
}

func floatArith(e *env, op string, l, r *numOp, sel []int, n int) (*TypedVec, error) {
	out := e.getTyped(types.FloatType, n)
	var nulls colstore.Bitmap
	setNull := func(i int) {
		if nulls == nil {
			nulls = e.getNulls(n)
		}
		nulls.Set(i)
		out.Floats[i] = 0
	}
	switch op {
	case "+":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			out.Floats[i] = l.floatAt(i) + r.floatAt(i)
		}
	case "-":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			out.Floats[i] = l.floatAt(i) - r.floatAt(i)
		}
	case "*":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			out.Floats[i] = l.floatAt(i) * r.floatAt(i)
		}
	case "/":
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			y := r.floatAt(i)
			if y == 0 {
				return nil, arithErr(op, types.NewFloat(l.floatAt(i)), types.NewFloat(0))
			}
			out.Floats[i] = l.floatAt(i) / y
		}
	default: // "%": types.Arith rejects float operands
		for _, i := range sel {
			if l.null(i) || r.null(i) {
				setNull(i)
				continue
			}
			return nil, arithErr(op, types.NewFloat(l.floatAt(i)), types.NewFloat(r.floatAt(i)))
		}
	}
	out.Nulls = nulls
	return out, nil
}

// gatherTyped compacts the selected elements of a typed vector into a
// dense arena vector (position o of the output = sel[o] of the input) —
// the typed counterpart of a projection's boxed gather.
func gatherTyped(e *env, tv *TypedVec, sel []int) *TypedVec {
	out := e.getTyped(tv.Typ, len(sel))
	switch tv.Typ {
	case types.FloatType:
		for o, i := range sel {
			out.Floats[o] = tv.Floats[i]
		}
	case types.StringType:
		if tv.Dict != nil {
			// Decode-on-demand: only surviving rows pay the dictionary read.
			for o, i := range sel {
				out.Strs[o] = tv.Dict.At(i)
			}
		} else {
			for o, i := range sel {
				out.Strs[o] = tv.Strs[i]
			}
		}
	default:
		if tv.Pack != nil {
			for o, i := range sel {
				out.Ints[o] = tv.Pack.At(i)
			}
		} else {
			for o, i := range sel {
				out.Ints[o] = tv.Ints[i]
			}
		}
	}
	if tv.Nulls != nil {
		nb := e.getNulls(len(sel))
		for o, i := range sel {
			if tv.Nulls.Get(i) {
				nb.Set(o)
			}
		}
		out.Nulls = nb
	}
	return out
}

// evalTyped negates numeric typed vectors without boxing (unary minus).
func (u *vUn) evalTyped(e *env, b *Batch, sel []int) (*TypedVec, error) {
	if u.op != "-" {
		return nil, nil
	}
	tv, err := evalTypedOf(u.x, e, b, sel)
	if err != nil || tv == nil {
		return nil, err
	}
	tv = decodeVec(e, tv, sel, b.N)
	// The input's null bitmap may belong to an immutable segment view;
	// arena typed vectors own (and pool) their bitmaps, so copy it.
	copyNulls := func(out *TypedVec) {
		if tv.Nulls != nil {
			nb := e.getNulls(b.N)
			copy(nb, tv.Nulls)
			out.Nulls = nb
		}
	}
	switch tv.Typ {
	case types.IntType:
		out := e.getTyped(types.IntType, b.N)
		copyNulls(out)
		for _, i := range sel {
			out.Ints[i] = -tv.Ints[i]
		}
		return out, nil
	case types.FloatType:
		out := e.getTyped(types.FloatType, b.N)
		copyNulls(out)
		for _, i := range sel {
			out.Floats[i] = -tv.Floats[i]
		}
		return out, nil
	}
	return nil, nil
}
