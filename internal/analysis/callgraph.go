package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Call-graph construction.
//
// The interprocedural analyzers (hotpath, dettaint, lockorder) share one
// conservative call graph over the loaded module, built with nothing but
// go/ast and go/types facts:
//
//   - Direct calls and method calls with a statically known callee become
//     one edge each.
//   - A method call through an interface declared in a module package is
//     resolved by declared-implementations matching: every named type in
//     the program that implements the interface contributes an edge to its
//     corresponding method. This is exact for the narrow engine.* seams
//     (engine.MemoryBackend resolves to *dram.Module, engine.Tracer — an
//     alias of trace.Sink — to *trace.Shard, and so on), because the
//     analyzers see every implementation the module can construct.
//     Interfaces declared outside the module (error, io.Writer) are not
//     resolved; their implementations are unbounded.
//   - A function referenced as a value (assigned, passed, returned) gets a
//     conservative edge from the function containing the reference: the
//     value may be called wherever it flows, so for reachability purposes
//     the referencing function "calls" it.
//   - Function literals are attributed to the enclosing declared function:
//     calls inside a closure are edges from the function that created the
//     closure. This over-approximates (the closure may never run) in the
//     direction every client wants.
//
// The graph is demand-built once per Program and cached; node and edge
// order is the deterministic source order of the loaded packages.

// EdgeKind classifies how a call-graph edge was discovered.
type EdgeKind uint8

const (
	// EdgeCall is a direct call with a statically known callee.
	EdgeCall EdgeKind = iota
	// EdgeInterface is a call through a module-declared interface,
	// resolved to one declared implementation.
	EdgeInterface
	// EdgeFuncValue is a conservative edge for a function referenced as a
	// value rather than called.
	EdgeFuncValue
)

// String names the edge kind for diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "func-value"
	default:
		return "call"
	}
}

// CGEdge is one caller → callee edge at one source position.
type CGEdge struct {
	// Callee is the target node.
	Callee *CGNode
	// Pos is the call site (or value reference) in the caller's body.
	Pos token.Pos
	// Kind records how the edge was discovered.
	Kind EdgeKind
}

// CGNode is one module function or method in the call graph.
type CGNode struct {
	// Fn is the type-checker object of the function.
	Fn *types.Func
	// Decl is the declaration with its body; nil only for interface
	// methods (which have no body and whose edges live on their
	// implementations).
	Decl *ast.FuncDecl
	// Pkg is the loaded package the declaration belongs to.
	Pkg *Package
	// Out are the outgoing edges in source order.
	Out []*CGEdge
}

// Name renders the node compactly for diagnostics: pkg.Func for functions,
// pkg.Type.Method for methods.
func (n *CGNode) Name() string { return funcDisplayName(n.Fn) }

// funcDisplayName renders a *types.Func as pkg.Func or pkg.Type.Method.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// CallGraph is the module-wide conservative call graph.
type CallGraph struct {
	prog *Program
	// nodes maps every module-declared function to its node.
	nodes map[*types.Func]*CGNode
	// ifaceImpls maps an interface method (declared in a module package)
	// to the method of every declared implementation.
	ifaceImpls map[*types.Func][]*types.Func
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// Node returns the node for fn, or nil if fn is not declared in the module.
func (g *CallGraph) Node(fn *types.Func) *CGNode { return g.nodes[fn] }

// Lookup finds a node by its display name (pkg.Func or pkg.Type.Method);
// test helper and debugging aid.
func (g *CallGraph) Lookup(display string) *CGNode {
	for _, n := range g.nodes {
		if n.Name() == display {
			return n
		}
	}
	return nil
}

// inModule reports whether path names a package of the analyzed module
// (or fixture tree).
func (p *Program) inModule(path string) bool {
	mp := p.Config.ModulePath
	return mp != "" && (path == mp || strings.HasPrefix(path, mp+"/"))
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:       prog,
		nodes:      make(map[*types.Func]*CGNode),
		ifaceImpls: make(map[*types.Func][]*types.Func),
	}

	// Pass 1: one node per declared function or method.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &CGNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}

	g.buildInterfaceTable()

	// Pass 2: edges from every declared body.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.nodes[fn]
				if node == nil {
					continue
				}
				g.addBodyEdges(node, pkg, fd.Body)
			}
		}
	}
	return g
}

// buildInterfaceTable resolves every module-declared interface method to
// the same-name method of every named type in the program that implements
// the interface (value or pointer receiver).
func (g *CallGraph) buildInterfaceTable() {
	prog := g.prog
	var ifaces []*types.Interface
	var concrete []*types.Named
	for _, pkg := range prog.Packages {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
				continue
			}
			concrete = append(concrete, named)
		}
	}
	for _, iface := range ifaces {
		for _, named := range concrete {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				cm, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				dup := false
				for _, have := range g.ifaceImpls[im] {
					if have == cm {
						dup = true
						break
					}
				}
				if !dup {
					g.ifaceImpls[im] = append(g.ifaceImpls[im], cm)
				}
			}
		}
	}
}

// addBodyEdges walks one body (function literals included) and appends the
// node's outgoing edges in source order.
func (g *CallGraph) addBodyEdges(node *CGNode, pkg *Package, body *ast.BlockStmt) {
	// First pass: remember which identifiers are the callee of a call, so
	// the func-value pass does not double-count them.
	calleeIdents := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calleeIdents[fun] = true
		case *ast.SelectorExpr:
			calleeIdents[fun.Sel] = true
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, n)
			if fn == nil {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, impl := range g.ifaceImpls[fn] {
					if target := g.nodes[impl]; target != nil {
						node.Out = append(node.Out, &CGEdge{Callee: target, Pos: n.Pos(), Kind: EdgeInterface})
					}
				}
				return true
			}
			if target := g.nodes[fn]; target != nil {
				node.Out = append(node.Out, &CGEdge{Callee: target, Pos: n.Pos(), Kind: EdgeCall})
			}
		case *ast.Ident:
			if calleeIdents[n] {
				return true
			}
			fn, ok := pkg.Info.Uses[n].(*types.Func)
			if !ok {
				return true
			}
			if target := g.nodes[fn]; target != nil {
				node.Out = append(node.Out, &CGEdge{Callee: target, Pos: n.Pos(), Kind: EdgeFuncValue})
			}
		}
		return true
	})
}

// reachEntry records how a node was first reached during a BFS: the node
// it was reached from and the edge used. Roots have a nil From.
type reachEntry struct {
	From *CGNode
	Via  *CGEdge
}

// reachableFrom runs a deterministic BFS from roots over every edge kind
// and returns the discovery map (roots included, mapped to a zero entry).
func (g *CallGraph) reachableFrom(roots []*CGNode) map[*CGNode]reachEntry {
	seen := make(map[*CGNode]reachEntry)
	queue := make([]*CGNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = reachEntry{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := seen[e.Callee]; ok {
				continue
			}
			seen[e.Callee] = reachEntry{From: n, Via: e}
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// chainTo renders the call chain from a BFS root to node n, e.g.
// "memctrl.Controller.WriteRow → dram.StoreRange".
func chainTo(seen map[*CGNode]reachEntry, n *CGNode) string {
	var names []string
	for at := n; at != nil; {
		names = append(names, at.Name())
		at = seen[at].From
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}
