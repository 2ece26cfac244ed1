package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Layerpurity enforces the three ownership rules the layer interfaces
// exist for:
//
//  1. Only internal/dram mutates cell/charge state. Everywhere else, the
//     mutating third of the rank contract (WriteWord, Refresh, MarkSpared)
//     must be reached through an interface — engine.MemoryBackend or a
//     declared slice of it — never by calling the concrete dram type
//     directly. The composition root (internal/core) is exempt: it
//     constructs the modules and wires them behind the interfaces.
//  2. Only internal/metrics constructs Counter, Gauge and Histogram
//     values. Everyone else mints them through metrics.Registry, which is
//     what guarantees a metric is named, registered, and visible in every
//     snapshot; an orphan &metrics.Counter{} silently vanishes from the
//     golden stats.
//  3. Only the introspection plane (internal/obs) and the command
//     packages (cmd/*) import net/http. The simulation layers stay
//     HTTP-free — anything they want observed goes through the metrics
//     registry, the tracer seam, or the core progress board, and the
//     plane serves it.
type Layerpurity struct{}

// Name implements Analyzer.
func (Layerpurity) Name() string { return "layerpurity" }

// Doc implements Analyzer.
func (Layerpurity) Doc() string {
	return "DRAM state mutates only via engine.MemoryBackend; counters are minted only by metrics.Registry; net/http imports only in internal/obs and cmd/*"
}

// dramMutators is the charge-state-mutating slice of the rank contract:
// the scalar methods, their batched equivalents (BeginRowWrite,
// RefreshGroups), the bulk idle replay (ReplayRefreshGroups), which perform
// the same state transitions a row burst, auto-refresh command, or
// idle-window run at a time, and CopyFrom,
// which overwrites a whole module's cells with another's
// (core.System.Clone). BeginRowWrite stands for its whole burst: the
// dram.RowWrite cursor through which dram.StoreRange stores a page or a
// single line, and whose End closes the burst, exists only as
// BeginRowWrite's result, so a layer holds one only if it opened the burst
// through the interface — or was flagged for opening it on the concrete
// module.
var dramMutators = map[string]bool{
	"WriteWord":           true,
	"Refresh":             true,
	"MarkSpared":          true,
	"BeginRowWrite":       true,
	"RefreshGroups":       true,
	"ReplayRefreshGroups": true,
	"CopyFrom":            true,
}

// metricValueTypes are the types only metrics.Registry may construct.
var metricValueTypes = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

// Run implements Analyzer.
func (l Layerpurity) Run(prog *Program, report func(pos token.Pos, msg string)) {
	cfg := prog.Config
	if cfg.DRAMPath == "" && cfg.MetricsPath == "" && cfg.ObsPath == "" {
		return
	}
	for _, pkg := range prog.Packages {
		dramExempt := pkg.Path == cfg.DRAMPath || pkg.Path == cfg.CorePath
		metricsExempt := pkg.Path == cfg.MetricsPath
		if cfg.ObsPath != "" {
			l.checkHTTPImports(prog, pkg, report)
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if !dramExempt {
						l.checkDRAMCall(prog, pkg, n, report)
					}
					if !metricsExempt {
						l.checkNewMetric(prog, pkg, n, report)
					}
				case *ast.CompositeLit:
					if !metricsExempt {
						l.checkMetricType(prog, pkg.Info.TypeOf(n), n.Pos(), "constructed by composite literal", report)
					}
				case *ast.ValueSpec:
					if !metricsExempt && n.Type != nil {
						l.checkMetricType(prog, pkg.Info.TypeOf(n.Type), n.Type.Pos(), "declared by value", report)
					}
				case *ast.Field:
					if !metricsExempt && n.Type != nil {
						l.checkMetricType(prog, pkg.Info.TypeOf(n.Type), n.Type.Pos(), "declared by value", report)
					}
				}
				return true
			})
		}
	}
}

// checkHTTPImports flags net/http (and subpackage) imports outside the
// introspection plane and the command packages.
func (Layerpurity) checkHTTPImports(prog *Program, pkg *Package, report func(token.Pos, string)) {
	cfg := prog.Config
	if pkg.Path == cfg.ObsPath || strings.HasPrefix(pkg.Path, cfg.ModulePath+"/cmd/") {
		return
	}
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != "net/http" && !strings.HasPrefix(path, "net/http/") {
				continue
			}
			report(imp.Path.Pos(), fmt.Sprintf(
				"%s imports %s; only %s and cmd/* may serve HTTP — expose state through metrics/trace/progress and let the introspection plane serve it",
				pkg.Path, path, cfg.ObsPath))
		}
	}
}

// checkDRAMCall flags mutating methods invoked on a concrete dram type.
func (Layerpurity) checkDRAMCall(prog *Program, pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !dramMutators[sel.Sel.Name] {
		return
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	recv := namedOf(s.Recv())
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != prog.Config.DRAMPath {
		return
	}
	if types.IsInterface(recv.Underlying()) {
		return
	}
	report(call.Pos(), fmt.Sprintf(
		"%s mutates DRAM cell state on concrete %s outside %s; hold the rank as engine.MemoryBackend (or a declared interface slice of it) instead",
		sel.Sel.Name, typeName(s.Recv()), prog.Config.DRAMPath))
}

// checkNewMetric flags new(metrics.Counter) / new(metrics.Gauge).
func (l Layerpurity) checkNewMetric(prog *Program, pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "new" {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	l.checkMetricType(prog, pkg.Info.TypeOf(call.Args[0]), call.Pos(), "constructed with new()", report)
}

// checkMetricType reports if t is a bare (non-pointer) metric value type.
func (Layerpurity) checkMetricType(prog *Program, t types.Type, pos token.Pos, how string, report func(token.Pos, string)) {
	if t == nil || prog.Config.MetricsPath == "" {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != prog.Config.MetricsPath || !metricValueTypes[obj.Name()] {
		return
	}
	report(pos, fmt.Sprintf(
		"metrics.%s %s; counters, gauges and histograms must be minted by metrics.Registry (Counter/Gauge/Histogram) so they are named and snapshotted",
		obj.Name(), how))
}
