package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineLife flags fire-and-forget goroutines in library packages.
// Every goroutine the platform starts (server applier, finisher, SSE
// writers, parallel diagnosis workers) must have a visible lifecycle: it
// drains a channel that Close shuts, selects on a stop/context signal, or
// signals a WaitGroup. A `go` statement with none of those is a leak —
// restarts and tests accumulate them, and shutdown can't drain them.
//
// The analyzer looks for lifecycle evidence in the goroutine body: a
// range over a channel, a receive, a select, ctx.Done(), or a
// sync.WaitGroup Done/Add discipline — following calls to same-package
// functions a few levels deep. Goroutines whose lifecycle lives outside
// the module (http.Server.Serve's listener close, say) carry a
// //lint:ignore goroutinelife directive explaining the tie.
// Package main is exempt: process lifetime is the lifecycle there.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "flags goroutines in library packages not tied to a channel close, stop signal, context, or WaitGroup",
	Run: func(pass *Pass) []Diagnostic {
		if pass.Pkg.Name() == "main" {
			return nil
		}
		decls := map[*types.Func]*ast.FuncDecl{}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
		var out []Diagnostic
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !goroutineTied(pass, decls, g.Call, map[*types.Func]bool{}, 3) {
					out = append(out, pass.diag("goroutinelife", g.Pos(),
						"goroutine is not visibly tied to a channel close, stop signal, context, or WaitGroup; give it a lifecycle or document the external tie with //lint:ignore goroutinelife <reason>"))
				}
				return true
			})
		}
		return out
	},
}

// goroutineTied reports whether the spawned call has lifecycle evidence.
func goroutineTied(pass *Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr, visiting map[*types.Func]bool, depth int) bool {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return bodyTied(pass, decls, lit.Body, visiting, depth)
	}
	callee := calleeFunc(pass.Info, call)
	if callee == nil {
		return false
	}
	fd, ok := decls[callee]
	if !ok {
		return false // external or other-package target: not provable here
	}
	return bodyTied(pass, decls, fd.Body, visiting, depth)
}

// bodyTied scans a body for lifecycle constructs, following same-package
// calls up to depth levels.
func bodyTied(pass *Pass, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt, visiting map[*types.Func]bool, depth int) bool {
	tied := false
	var callees []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					tied = true
					return false
				}
			}
		case *ast.SelectStmt:
			tied = true
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				tied = true
				return false
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil {
				if isWaitGroupMethod(fn, "Done") {
					tied = true
					return false
				}
				callees = append(callees, fn)
			}
		}
		return true
	})
	if tied {
		return true
	}
	if depth == 0 {
		return false
	}
	for _, fn := range callees {
		if visiting[fn] {
			continue
		}
		if fd, ok := decls[fn]; ok {
			visiting[fn] = true
			if bodyTied(pass, decls, fd.Body, visiting, depth-1) {
				return true
			}
		}
	}
	return false
}

func isWaitGroupMethod(fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}
