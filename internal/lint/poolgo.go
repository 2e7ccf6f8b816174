package lint

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// PoolGo flags raw `go` statements outside internal/pool. The Engine
// facade (PR 5) guarantees that concurrent callers share one bounded
// worker set — ~width+M goroutines instead of M×width — and that
// guarantee only holds while internal/pool is the sole place that
// spawns workers. A stray goroutine elsewhere silently erodes the
// bound and reintroduces scheduling-order nondeterminism.
var PoolGo = suppressGated(&analysis.Analyzer{
	Name:     "poolgo",
	Doc:      "forbid raw go statements outside internal/pool; concurrency must ride pool.Shared (bounded-pool invariant)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runPoolGo,
})

const poolgoInvariant = "all concurrency rides the shared bounded pool so Engine's width guarantee holds"

func runPoolGo(pass *analysis.Pass) (interface{}, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/pool") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		if testFile(pass, n.Pos()) {
			return
		}
		pass.Reportf(n.Pos(), "%s", invariantf("poolgo",
			poolgoInvariant, "raw go statement outside internal/pool; submit the work through pool.Shared instead"))
	})
	return nil, nil
}
