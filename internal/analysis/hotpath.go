package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath guards the allocation-freedom of the batched datapath. The
// refresh-reduction result only materializes if the page-fill and
// per-window inner loops (the row burst — WriteRow, EncodeRow,
// BeginRowWrite, the generic dram.StoreRange and RowWrite.End — the
// command-sized RefreshGroups and ReplayRefreshGroups, and the event-queue
// ops under them)
// never touch the garbage collector, and the benchmark suite can only
// catch a regression after the fact on the configurations it happens to
// run. Hotpath turns the contract into a whole-program static guarantee:
// a function annotated
//
//	//zr:hotpath
//
// in its doc comment is a hot root, and neither it nor anything reachable
// from it through the call graph may contain a heap-allocating construct:
//
//   - defer (frame allocation, delayed cleanup)
//   - function literals (closure allocation)
//   - address-taken composite literals (&T{...} escapes)
//   - slice and map literals, make(map), make(chan), new(T)
//     (make([]T, ...) stays legal: it is the sanctioned lazy
//     materialization pattern, sized once and reused)
//   - append to a fresh, capacity-less local slice (append into a
//     pre-sized field or 3-arg make is steady-state reuse and legal)
//   - map iteration (hidden iterator, and order nondeterminism besides)
//   - calls into package fmt, and non-constant string concatenation
//   - interface boxing: passing or converting a concrete non-pointer
//     value to an interface-typed parameter
//
// The argument of a builtin panic call is exempt — panic paths are cold by
// definition, and the tree's invariant-violation panics build their
// messages with fmt.Sprintf. Each diagnostic names the call chain from the
// annotated root so a finding deep in a helper is actionable. Deliberate
// exceptions (a lazy one-time allocation, an error construction on a
// reject path) are acknowledged with //zr:allow(hotpath).
type Hotpath struct{}

// Name implements Analyzer.
func (Hotpath) Name() string { return "hotpath" }

// Doc implements Analyzer.
func (Hotpath) Doc() string {
	return "no heap-allocating constructs in or reachable from //zr:hotpath functions"
}

// hotpathAnnotated reports whether the declaration's doc comment carries a
// //zr:hotpath marker line.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "zr:hotpath" || strings.HasPrefix(text, "zr:hotpath ") {
			return true
		}
	}
	return false
}

// Run implements Analyzer.
func (Hotpath) Run(prog *Program, report func(pos token.Pos, msg string)) {
	g := prog.CallGraph()

	var roots []*CGNode
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hotpathAnnotated(fd) {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if node := g.Node(fn); node != nil {
					roots = append(roots, node)
				}
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	seen := g.reachableFrom(roots)

	// Scan in deterministic declaration order rather than map order.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.Node(fn)
				if node == nil {
					continue
				}
				if _, hot := seen[node]; !hot {
					continue
				}
				chain := "(" + chainTo(seen, node) + ")"
				scanHotBody(pkg, fd.Body, chain, report)
			}
		}
	}
}

// scanHotBody reports every banned construct in one hot function body.
// chain is the pre-rendered call chain from the //zr:hotpath root.
func scanHotBody(pkg *Package, body *ast.BlockStmt, chain string, report func(pos token.Pos, msg string)) {
	info := pkg.Info
	fresh := freshSlices(info, body)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			report(n.Pos(), "defer allocates and delays cleanup on the hot path "+chain)

		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure on the hot path "+chain)
			return false

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address-taken composite literal escapes to the heap on the hot path "+chain)
					return false
				}
			}

		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates on the hot path "+chain)
					return false
				case *types.Map:
					report(n.Pos(), "map literal allocates on the hot path "+chain)
					return false
				}
			}

		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Pos(), "map iteration on the hot path (hidden iterator, randomized order) "+chain)
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					report(n.Pos(), "string concatenation allocates on the hot path "+chain)
				}
			}

		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if tv, ok := info.Types[n.Lhs[0]]; ok && isString(tv.Type) {
					report(n.Pos(), "string concatenation allocates on the hot path "+chain)
				}
			}

		case *ast.CallExpr:
			return scanHotCall(info, n, fresh, chain, report)
		}
		return true
	})
}

// scanHotCall checks one call expression; the returned bool tells the
// walker whether to descend into the call's children.
func scanHotCall(info *types.Info, call *ast.CallExpr, fresh map[*types.Var]bool, chain string, report func(pos token.Pos, msg string)) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				// Panic paths are cold; their message construction is exempt.
				return false
			case "new":
				report(call.Pos(), "new allocates on the hot path "+chain)
				return false
			case "make":
				if len(call.Args) > 0 {
					if tv, ok := info.Types[call.Args[0]]; ok {
						switch tv.Type.Underlying().(type) {
						case *types.Map:
							report(call.Pos(), "make(map) allocates on the hot path "+chain)
						case *types.Chan:
							report(call.Pos(), "make(chan) allocates on the hot path "+chain)
						}
					}
				}
				return true
			case "append":
				if len(call.Args) > 0 {
					if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if v, ok := info.Uses[base].(*types.Var); ok && fresh[v] {
							report(call.Pos(), fmt.Sprintf(
								"append to fresh capacity-less slice %s reallocates on the hot path %s; size it with a 3-arg make or reuse a field", base.Name, chain))
						}
					}
				}
				return true
			}
		}
	}

	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := info.Types[call.Args[0]]; ok && boxes(tv.Type, atv) {
				report(call.Pos(), fmt.Sprintf(
					"conversion of %s to %s boxes into an interface on the hot path %s", typeName(atv.Type), typeName(tv.Type), chain))
			}
		}
		return true
	}

	// Calls into fmt allocate wholesale; one diagnostic for the call, and
	// the arguments (which would each be flagged for boxing) are subsumed.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), fmt.Sprintf("fmt.%s allocates on the hot path %s", fn.Name(), chain))
		return false
	}

	// Implicit boxing: a concrete non-pointer argument passed to an
	// interface-typed parameter.
	sig := callSignature(info, call)
	if sig == nil || call.Ellipsis.IsValid() {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			param = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			param = params.At(i).Type()
		}
		atv, ok := info.Types[arg]
		if !ok || param == nil {
			continue
		}
		if boxes(param, atv) {
			report(arg.Pos(), fmt.Sprintf(
				"passing %s as %s boxes into an interface on the hot path %s", typeName(atv.Type), typeName(param), chain))
		}
	}
	return true
}

// callSignature resolves the signature a call invokes, for both static
// callees and calls through function-typed values.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Type().(*types.Signature)
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// boxes reports whether passing a value described by arg to a parameter of
// type param stores a concrete value into an interface, which allocates
// for anything not pointer-shaped. Constants are excused (dominated by the
// small-value cache and by cold paths), as are untyped nil and values that
// are already interfaces.
func boxes(param types.Type, arg types.TypeAndValue) bool {
	if param == nil || arg.Type == nil || !types.IsInterface(param) {
		return false
	}
	if arg.Value != nil || types.IsInterface(arg.Type) {
		return false
	}
	switch u := arg.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Info()&types.IsUntyped != 0 {
			return false
		}
	}
	return true
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// freshSlices finds local slice variables declared in body without
// capacity: `var s []T`, `s := make([]T, n)` (2-arg), or a slice literal.
// Appending to one of those reallocates; appending to a parameter, field,
// or 3-arg make is the steady-state reuse pattern and stays legal.
func freshSlices(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	mark := func(id *ast.Ident, nocap bool) {
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if nocap {
			fresh[v] = true
		} else {
			delete(fresh, v)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name, true)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := ast.Unparen(n.Rhs[i]).(type) {
				case *ast.CallExpr:
					if fid, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && fid.Name == "make" {
						if _, isBuiltin := info.Uses[fid].(*types.Builtin); isBuiltin {
							mark(id, len(rhs.Args) == 2)
						}
					}
				case *ast.CompositeLit:
					mark(id, true)
				}
			}
		}
		return true
	})
	return fresh
}
