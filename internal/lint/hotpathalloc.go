package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc returns the analyzer guarding PR 1's hot-path contract: the
// code that runs every simulated cycle performs no allocation and no map
// lookup. The per-tick call surface is discovered structurally, per
// package:
//
//   - Cycle() methods — the sim.Tickable tick callbacks;
//   - Next() (T, bool) methods — schedule generators;
//   - Consume(T) methods — result consumers;
//   - Lookahead() uint64 and Advance(uint64) methods — the comp.Lookahead
//     fast-forward probes, called once per candidate skip at tick rate;
//   - every sim.Controller method of a type implementing that interface,
//     except Deadlock;
//   - extraRoots, a per-package-path list of "Type.Method" (or plain
//     function) names for hot leaves invoked from another package's tick
//     loop — e.g. mem.GlobalBuffer.Read, which engine controllers call per
//     cycle but which roots nothing structurally in its own package.
//
// From those roots the analyzer walks the package-local static call graph
// and flags allocating expressions and map indexing in every reachable
// function. Calls that cross a package boundary are not followed (each
// package is analyzed with its own roots); Controller.Deadlock is
// deliberately not a root — it renders once, at abort, never per tick.
func HotPathAlloc(extraRoots map[string][]string) *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc: "per-tick code (Cycle/Next/Consume and sim.Controller methods, plus their " +
			"package-local callees) must stay free of allocations and map lookups",
	}
	a.Run = func(pass *Pass) error {
		h := &hotPaths{pass: pass}
		h.collectDecls()
		h.collectRoots(extraRoots[pass.Pkg.Path()])
		h.propagate()
		h.flag()
		return nil
	}
	return a
}

type hotFunc struct {
	decl *ast.FuncDecl
	// root holds the surface name the function was reached from, for the
	// diagnostic ("Cycle", "Next", a Controller method, ...). Empty = cold.
	root string
}

type hotPaths struct {
	pass  *Pass
	decls map[*types.Func]*hotFunc
	work  []*types.Func
}

func (h *hotPaths) collectDecls() {
	h.decls = make(map[*types.Func]*hotFunc)
	for _, f := range h.pass.Files {
		if h.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := h.pass.Info.Defs[fd.Name].(*types.Func); ok {
				h.decls[fn] = &hotFunc{decl: fd}
			}
		}
	}
}

func (h *hotPaths) markRoot(fn *types.Func, why string) {
	hf, ok := h.decls[fn]
	if !ok || hf.root != "" {
		return
	}
	hf.root = why
	h.work = append(h.work, fn)
}

// collectRoots marks the structural roots and the configured hot leaves,
// and reports (at the first file's package clause) a configured leaf that
// names no declaration: a renamed or promoted method would otherwise drop
// out of the check without a sign.
func (h *hotPaths) collectRoots(extra []string) {
	matched := make(map[string]bool, len(extra))
	for _, e := range extra {
		matched[e] = false
	}
	ctrl := h.controllerIface()
	for fn, hf := range h.decls {
		fd := hf.decl
		name := qualifiedName(fd)
		if _, ok := matched[name]; ok {
			matched[name] = true
			h.markRoot(fn, name+" (configured hot leaf)")
		}
		if fd.Recv == nil {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if recv := sig.Recv().Type(); ctrl != nil && fd.Name.Name != "Deadlock" &&
			types.NewMethodSet(ctrl).Lookup(nil, fd.Name.Name) != nil &&
			(types.Implements(recv, ctrl) || types.Implements(types.NewPointer(recv), ctrl)) {
			h.markRoot(fn, name+" (sim.Controller)")
		}
		switch fd.Name.Name {
		case "Cycle":
			if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				h.markRoot(fn, name+" (tick callback)")
			}
		case "Next":
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 && isBool(sig.Results().At(1).Type()) {
				h.markRoot(fn, name+" (schedule source)")
			}
		case "Consume":
			if sig.Params().Len() == 1 && sig.Results().Len() == 0 {
				h.markRoot(fn, name+" (result sink)")
			}
		case "Lookahead":
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 && isUint64(sig.Results().At(0).Type()) {
				h.markRoot(fn, name+" (fast-forward probe)")
			}
		case "Advance":
			if sig.Params().Len() == 1 && sig.Results().Len() == 0 && isUint64(sig.Params().At(0).Type()) {
				h.markRoot(fn, name+" (fast-forward advance)")
			}
		}
	}
	for _, e := range extra {
		if !matched[e] {
			h.pass.Reportf(h.pass.Files[0].Name.Pos(), "configured hot leaf %s matches no declaration in %s", e, h.pass.Pkg.Path())
		}
	}
}

// simPkgPath declares the Controller contract the kernel drives per tick.
const simPkgPath = "repro/internal/sim"

// controllerIface returns the sim.Controller interface when the package
// under analysis imports internal/sim, nil otherwise.
func (h *hotPaths) controllerIface() *types.Interface {
	for _, imp := range h.pass.Pkg.Imports() {
		if imp.Path() != simPkgPath {
			continue
		}
		if obj := imp.Scope().Lookup("Controller"); obj != nil {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}

// staticCallee resolves an expression to a package-local declared function
// (method f.helper, or plain identifier).
func (h *hotPaths) staticCallee(e ast.Expr) *types.Func {
	var obj types.Object
	switch v := e.(type) {
	case *ast.Ident:
		obj = h.pass.Info.Uses[v]
	case *ast.SelectorExpr:
		obj = h.pass.Info.Uses[v.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, local := h.decls[fn]; !local {
		return nil
	}
	return fn
}

// propagate runs the BFS over package-local static calls.
func (h *hotPaths) propagate() {
	visit := func(body ast.Node, root string) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := h.staticCallee(call.Fun); fn != nil {
				h.markRoot(fn, root)
			}
			return true
		})
	}
	for len(h.work) > 0 {
		fn := h.work[len(h.work)-1]
		h.work = h.work[:len(h.work)-1]
		hf := h.decls[fn]
		visit(hf.decl.Body, hf.root)
	}
}

// flag reports allocating constructs in every hot body.
func (h *hotPaths) flag() {
	for _, hf := range h.decls {
		if hf.root != "" {
			h.flagBody(hf.decl.Body, hf.root)
		}
	}
}

func (h *hotPaths) flagBody(body ast.Node, root string) {
	info := h.pass.Info
	report := func(pos token.Pos, what string) {
		h.pass.Reportf(pos, "%s on the per-tick path (reachable from %s)", what, root)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := info.Types[e.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(e.Lbrack, "map index")
				}
			}
		case *ast.FuncLit:
			report(e.Pos(), "closure (captures escape to the heap)")
		case *ast.GoStmt:
			report(e.Pos(), "goroutine launch")
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(e.Pos(), "slice literal (allocates)")
				case *types.Map:
					report(e.Pos(), "map literal (allocates)")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(info, e.X) {
				report(e.OpPos, "string concatenation (allocates)")
			}
		case *ast.CallExpr:
			h.flagCall(e, report)
		}
		return true
	})
}

func (h *hotPaths) flagCall(call *ast.CallExpr, report func(token.Pos, string)) {
	info := h.pass.Info
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call.Pos(), "append (may grow the backing array)")
			case "make":
				report(call.Pos(), "make (allocates)")
			case "new":
				report(call.Pos(), "new (allocates)")
			}
			return
		}
	}
	// Conversions between string and byte/rune slices.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if from != nil {
			if isStringType(to) && isByteOrRuneSlice(from.Underlying()) ||
				isByteOrRuneSlice(to) && isStringType(from.Underlying()) {
				report(call.Pos(), "string/slice conversion (copies and allocates)")
			}
		}
		return
	}
	// fmt.* — formatting always allocates.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
				report(call.Pos(), "fmt."+fn.Name()+" (formats and allocates)")
			}
		}
	}
}

func qualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune)
}
