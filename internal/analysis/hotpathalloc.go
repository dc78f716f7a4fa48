package analysis

import (
	"go/ast"
	"go/types"
)

// Hotpathalloc enforces the alloc-free contract on functions annotated
// //qoserve:hotpath (the scheduler plan path, forest prediction, queue
// operations, the relegation scan). It flags the constructs that defeat the
// runtime zero-alloc guards (TestPlanBatchSteadyStateAllocFree,
// TestForestPredictAllocFree) one code review too late:
//
//   - any fmt call (Sprintf/Errorf always allocate; even Fprintf boxes
//     its variadic arguments),
//   - make/new and &CompositeLit (direct heap allocation), slice or map
//     composite literals,
//   - string concatenation (+ / += on strings),
//   - append that grows a different slice than it reassigns — only the
//     self-append forms `x = append(x, ...)` and `x = append(x[:k], ...)`
//     amortize into a reusable scratch buffer,
//   - function literals that escape (stored in fields/slices/maps,
//     returned, or passed to calls other than the non-escaping sort
//     helpers),
//   - implicit boxing of a concrete non-pointer value into an interface,
//   - calls to statically-resolvable functions that are not themselves
//     //qoserve:hotpath (or on the small no-alloc allowlist): the callee's
//     allocations are invisible here, so the annotation must travel with
//     the call graph.
//
// Dynamically dispatched calls (interface methods, function values) cannot
// be checked statically and are deliberately exempt; the runtime guards
// remain the backstop for those.
var Hotpathalloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocation-inducing constructs in //qoserve:hotpath functions",
	Run:  runHotpathalloc,
}

// hotpathStdlibAllowed are statically-resolvable non-module callees known
// not to allocate.
var hotpathStdlibAllowed = map[string]bool{
	"sort.Search": true,
	"math.Abs":    true, "math.Ceil": true, "math.Floor": true, "math.Inf": true,
	"math.IsInf": true, "math.IsNaN": true, "math.Max": true, "math.Min": true,
	"math.Mod": true, "math.NaN": true, "math.Pow": true, "math.Sqrt": true,
	"math.Exp": true, "math.Log": true, "math.Log2": true, "math.Trunc": true,
	"math.Round": true, "math.MaxInt": true,
	"math.Float64bits": true, "math.Float64frombits": true,
	"(time.Duration).Seconds": true,
	// sync/atomic ops: lock-free counters are the approved way to account
	// work on the live serving hot path.
	"(*sync/atomic.Uint64).Add": true, "(*sync/atomic.Uint64).Load": true,
	"(*sync/atomic.Uint64).Store": true,
	"(*sync/atomic.Int64).Add":    true, "(*sync/atomic.Int64).Load": true,
	"(*sync/atomic.Int64).Store": true,
	"(*sync/atomic.Bool).Load":   true,
	// Load on an atomic pointer reads a word; it never allocates. (Store
	// is deliberately absent: publishing implies the caller built the
	// pointee, which is the allocation to keep off the hot path.)
	"(*sync/atomic.Pointer[T]).Load": true,
}

func runHotpathalloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotpathDirective) {
				continue
			}
			checkHotpathFunc(pass, fd)
		}
	}
	return nil
}

func checkHotpathFunc(pass *Pass, fd *ast.FuncDecl) {
	// selfAppends records append calls blessed by their enclosing
	// assignment (x = append(x, ...)); gathered first so the general call
	// walk can skip them.
	selfAppends := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call, "append") || len(call.Args) == 0 {
				continue
			}
			if sameBase(pass, as.Lhs[i], call.Args[0]) {
				selfAppends[call] = true
			}
		}
		return true
	})

	// allowedFuncLits are literals that cannot escape: bound to a local
	// variable, invoked immediately, or handed to a non-escaping sort
	// helper.
	allowedLits := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && i < len(n.Lhs) {
					if _, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						allowedLits[lit] = true
					}
				}
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				allowedLits[lit] = true // immediately invoked
			}
			if fn := calleeOf(pass.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						allowedLits[lit] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotpathCall(pass, n, selfAppends)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isString(pass.Info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "string concatenation allocates on the hot path; use a preallocated buffer or cache the string")
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isString(pass.Info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string += allocates on the hot path")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal heap-allocates on the hot path")
				}
			}
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "slice/map composite literal allocates on the hot path; reuse a scratch buffer")
			}
		case *ast.FuncLit:
			if !allowedLits[n] {
				pass.Reportf(n.Pos(), "escaping function literal allocates its closure on the hot path")
			}
			return false // the literal's body runs in its own context
		}
		checkBoxing(pass, n)
		return true
	})
}

func checkHotpathCall(pass *Pass, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool) {
	// Builtins: make/new allocate; append must be a blessed self-append;
	// the rest (len, cap, copy, delete, clear, min, max) are free.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := pass.Info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s allocates on the hot path; hoist into a reused scratch buffer", id.Name)
			case "append":
				if !selfAppends[call] {
					pass.Reportf(call.Pos(),
						"append result is not reassigned to its own first argument; growth escapes the scratch buffer and allocates")
				}
			}
			return
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: allocation-relevant only when converting to an
		// interface (handled by checkBoxing) or string<->[]byte.
		if isString(tv.Type) {
			pass.Reportf(call.Pos(), "conversion to string allocates on the hot path")
		}
		return
	}

	fn := calleeOf(pass.Info, call)
	if fn == nil || isInterfaceMethod(fn) {
		return // dynamic dispatch: statically unknowable, runtime guards cover it
	}
	if fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path", fn.Name())
		return
	}
	full := fn.FullName()
	if pass.Hotpath[full] || hotpathStdlibAllowed[full] {
		return
	}
	// Instantiated generic methods carry their type arguments in FullName
	// (e.g. "(*sync/atomic.Pointer[...]).Load"); the fact base and the
	// allowlist are keyed by the uninstantiated origin.
	if origin := fn.Origin(); origin != fn {
		full = origin.FullName()
		if pass.Hotpath[full] || hotpathStdlibAllowed[full] {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"call to %s, which is not annotated %s: its allocations are invisible to this check",
		full, HotpathDirective)
}

// checkBoxing flags implicit conversions of concrete non-pointer values to
// interface types at call arguments, assignments, and returns — the boxing
// allocation the compiler inserts silently.
func checkBoxing(pass *Pass, n ast.Node) {
	report := func(e ast.Expr, to types.Type) {
		from := pass.Info.TypeOf(e)
		if from == nil || to == nil || !types.IsInterface(to) || types.IsInterface(from) {
			return
		}
		if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
			return // untyped constant: may be boxed from a static value
		}
		if isUntypedNil(from) {
			return
		}
		switch from.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			return // pointer-shaped: boxing stores the pointer, no allocation
		}
		pass.Reportf(e.Pos(), "implicit conversion of %s to interface %s boxes the value and allocates", from, to)
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
			report(n.Args[0], tv.Type)
			return
		}
		fn := calleeOf(pass.Info, n)
		if fn == nil {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		for i, arg := range n.Args {
			var pt types.Type
			if sig.Variadic() && i >= sig.Params().Len()-1 {
				last := sig.Params().At(sig.Params().Len() - 1).Type()
				if s, ok := last.(*types.Slice); ok {
					pt = s.Elem()
				}
			} else if i < sig.Params().Len() {
				pt = sig.Params().At(i).Type()
			}
			if pt != nil {
				report(arg, pt)
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				report(n.Rhs[i], pass.Info.TypeOf(n.Lhs[i]))
			}
		}
	}
}

func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// sameBase reports whether two expressions denote the same storage
// location for append-growth purposes: identical identifier/selector
// chains, with slicing on the source side ignored (x = append(x[:k], ...)).
func sameBase(pass *Pass, lhs, arg ast.Expr) bool {
	a := ast.Unparen(arg)
	for {
		if s, ok := a.(*ast.SliceExpr); ok {
			a = ast.Unparen(s.X)
			continue
		}
		break
	}
	return sameRef(pass, ast.Unparen(lhs), a)
}

func sameRef(pass *Pass, a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && objOf(pass, a) != nil && objOf(pass, a) == objOf(pass, b)
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && objOf(pass, a.Sel) == objOf(pass, b.Sel) &&
			objOf(pass, a.Sel) != nil && sameRef(pass, ast.Unparen(a.X), ast.Unparen(b.X))
	}
	return false
}

func objOf(pass *Pass, id *ast.Ident) types.Object {
	if o := pass.Info.Uses[id]; o != nil {
		return o
	}
	return pass.Info.Defs[id]
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
