package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer derives the mutex-acquisition graph from the AST and
// rejects cycles. A lock's identity is the variable holding it — for struct
// fields (Entry.qmu, the scheduler policy lock Base.Mu, multiwf's
// Global.mu and Instance.mu) that is the field itself, so every instance
// of a type shares one graph node and the analysis checks lock *roles*,
// which is what a global ordering is about.
//
// It earns its place with the lock_inversion mutant (mutants_test.go):
// Global.Run charging an instance's stride while holding Instance.mu and
// reading g.Instances() inverts the real Global.mu → Instance.mu edge. The
// deadlock needs a concurrent Remove or ConnectionController call to
// bite, so no test and no -race run sees it.
//
// An edge A → B is added when B is acquired (directly, or transitively
// through a statically resolvable call) while A is held. Call resolution
// covers direct calls, interface methods (resolved to every concrete
// implementation in the loaded program), and calls through func-valued
// variables (resolved to every function or method value assigned to that
// variable anywhere). Function literals are not summarized: a closure body
// is skipped rather than attributed to its enclosing function, since stored
// callbacks (timers) run with no locks held.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "the mutex-acquisition graph must stay acyclic",
	Mode: WholeProgram,
	Run:  runLockOrder,
}

type lockEdge struct{ from, to *types.Var }

type lockEdgeData struct {
	pos token.Pos
	via string // "" for a direct acquisition, callee name otherwise
}

type lockCallEvent struct {
	callees []*types.Func
	held    []*types.Var
	pos     token.Pos
}

type lockFuncSummary struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	pkg     *Package
	all     map[*types.Var]bool // locks acquired here or in callees
	callees map[*types.Func]bool
	calls   []lockCallEvent
}

type lockOrder struct {
	pass      *Pass
	decls     []*lockFuncSummary
	byFunc    map[*types.Func]*lockFuncSummary
	varFuncs  map[*types.Var][]*types.Func // func-valued var -> assigned funcs
	implCache map[string][]*types.Func
	edges     map[lockEdge]lockEdgeData
	edgeOrder []lockEdge
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrder{
		pass:      pass,
		byFunc:    map[*types.Func]*lockFuncSummary{},
		varFuncs:  map[*types.Var][]*types.Func{},
		implCache: map[string][]*types.Func{},
		edges:     map[lockEdge]lockEdgeData{},
	}
	lo.collectFuncs()
	lo.collectFuncValues()
	for _, s := range lo.decls {
		lo.summarize(s)
	}
	lo.propagate()
	lo.callEdges()
	lo.reportCycles()
	return nil
}

// collectFuncs indexes every function declaration with a body, in a
// deterministic (position) order.
func (lo *lockOrder) collectFuncs() {
	for _, pkg := range lo.pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &lockFuncSummary{
					fn: fn, decl: fd, pkg: pkg,
					all:     map[*types.Var]bool{},
					callees: map[*types.Func]bool{},
				}
				lo.decls = append(lo.decls, s)
				lo.byFunc[fn] = s
			}
		}
	}
	sort.Slice(lo.decls, func(i, j int) bool {
		pi := lo.pass.Fset.Position(lo.decls[i].decl.Pos())
		pj := lo.pass.Fset.Position(lo.decls[j].decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
}

// collectFuncValues maps func-typed variables and fields to every function
// assigned to them (r.enqueue = d.sched.Enqueue escapes a method value that
// a later r.enqueue(...) call would otherwise hide).
func (lo *lockOrder) collectFuncValues() {
	record := func(info *types.Info, lhs, rhs ast.Expr) {
		var v *types.Var
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			v = fieldOf(info, lhs)
			if v == nil {
				v, _ = info.Uses[lhs.Sel].(*types.Var)
			}
		case *ast.Ident:
			if o, ok := info.Defs[lhs].(*types.Var); ok {
				v = o
			} else if o, ok := info.Uses[lhs].(*types.Var); ok {
				v = o
			}
		}
		if v == nil {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return
		}
		for _, fn := range lo.funcValues(info, rhs) {
			lo.varFuncs[v] = append(lo.varFuncs[v], fn)
		}
	}
	for _, pkg := range lo.pass.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							record(info, n.Lhs[i], n.Rhs[i])
						}
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						record(info, key, n.Value)
					}
				}
				return true
			})
		}
	}
}

// funcValues resolves an expression used as a func value to the concrete
// functions it may denote.
func (lo *lockOrder) funcValues(info *types.Info, e ast.Expr) []*types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.MethodVal {
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				return lo.implementers(iface, fn.Name())
			}
			return []*types.Func{fn}
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return []*types.Func{fn} // qualified pkg.Func
		}
	}
	return nil
}

// implementers resolves an interface method to the matching method on every
// concrete named type in the loaded program that implements the interface.
func (lo *lockOrder) implementers(iface *types.Interface, name string) []*types.Func {
	key := iface.String() + "." + name
	if fns, ok := lo.implCache[key]; ok {
		return fns
	}
	var fns []*types.Func
	for _, pkg := range lo.pass.Pkgs {
		scope := pkg.Types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			if !types.Implements(T, iface) && !types.Implements(types.NewPointer(T), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), true, pkg.Types, name)
			if fn, ok := obj.(*types.Func); ok {
				fns = append(fns, fn)
			}
		}
	}
	lo.implCache[key] = fns
	return fns
}

// lockCall classifies a call as a mutex acquire/release and resolves the
// lock variable it targets.
func lockCall(info *types.Info, call *ast.CallExpr) (v *types.Var, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil, false, false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return nil, false, false
	}
	// Resolve the expression the method is called on to a variable: a named
	// mutex field (s.mu.Lock()), a package-level mutex, a local, or — for an
	// embedded mutex (e.Lock()) — the embedding variable itself.
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if f := fieldOf(info, x); f != nil {
			return f, acquire, release
		}
		if o, ok := info.Uses[x.Sel].(*types.Var); ok {
			return o, acquire, release
		}
	case *ast.Ident:
		if o, ok := info.Uses[x].(*types.Var); ok {
			return o, acquire, release
		}
	}
	return nil, false, false
}

// summarize walks one function body in source order, tracking the held-lock
// set: Lock adds, non-deferred Unlock removes, deferred Unlock keeps the
// lock held to function end. Direct acquisition-under-lock yields edges
// immediately; calls are recorded with the held snapshot for the
// interprocedural pass.
func (lo *lockOrder) summarize(s *lockFuncSummary) {
	info := s.pkg.Info
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	var held []*types.Var
	holds := func(v *types.Var) bool {
		for _, h := range held {
			if h == v {
				return true
			}
		}
		return false
	}
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures are not attributed to the enclosing frame
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, acquire, release := lockCall(info, call); v != nil {
			switch {
			case acquire:
				for _, h := range held {
					if h != v {
						lo.addEdge(h, v, call.Pos(), "")
					}
				}
				if !holds(v) {
					held = append(held, v)
				}
				s.all[v] = true
			case release && !deferred[call]:
				for i, h := range held {
					if h == v {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return true
		}
		callees := lo.callees(info, call)
		if len(callees) == 0 {
			return true
		}
		for _, c := range callees {
			s.callees[c] = true
		}
		if len(held) > 0 {
			snap := make([]*types.Var, len(held))
			copy(snap, held)
			s.calls = append(s.calls, lockCallEvent{callees: callees, held: snap, pos: call.Pos()})
		}
		return true
	})
}

// callees resolves a call expression to the functions it may invoke.
func (lo *lockOrder) callees(info *types.Info, call *ast.CallExpr) []*types.Func {
	if fn := funcFor(info, call); fn != nil {
		return []*types.Func{fn}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && isInterfaceRecv(s.Recv()) {
				return lo.implementers(s.Recv().Underlying().(*types.Interface), fn.Name())
			}
		}
		// A call through a func-valued field: r.enqueue(batch).
		if v := fieldOf(info, fun); v != nil {
			return lo.varFuncs[v]
		}
	case *ast.Ident:
		if v, ok := info.Uses[fun].(*types.Var); ok {
			return lo.varFuncs[v]
		}
	}
	return nil
}

// propagate computes, for every function, the set of locks acquired by it or
// any transitive callee (fixpoint over the call graph).
func (lo *lockOrder) propagate() {
	for changed := true; changed; {
		changed = false
		for _, s := range lo.decls {
			for callee := range s.callees {
				cs := lo.byFunc[callee]
				if cs == nil {
					continue
				}
				for lock := range cs.all {
					if !s.all[lock] {
						s.all[lock] = true
						changed = true
					}
				}
			}
		}
	}
}

// callEdges materializes held-across-call edges: every lock a callee may
// transitively acquire is ordered after every lock held at the call site.
func (lo *lockOrder) callEdges() {
	for _, s := range lo.decls {
		for _, ev := range s.calls {
			for _, callee := range ev.callees {
				cs := lo.byFunc[callee]
				if cs == nil {
					continue
				}
				locks := make([]*types.Var, 0, len(cs.all))
				for lock := range cs.all {
					locks = append(locks, lock)
				}
				sort.Slice(locks, func(i, j int) bool {
					return varDisplay(locks[i]) < varDisplay(locks[j])
				})
				for _, lock := range locks {
					for _, h := range ev.held {
						if h != lock {
							lo.addEdge(h, lock, ev.pos, callee.Name())
						}
					}
				}
			}
		}
	}
}

func (lo *lockOrder) addEdge(from, to *types.Var, pos token.Pos, via string) {
	e := lockEdge{from, to}
	if _, ok := lo.edges[e]; ok {
		return
	}
	lo.edges[e] = lockEdgeData{pos: pos, via: via}
	lo.edgeOrder = append(lo.edgeOrder, e)
}

// reportCycles finds cycles in the acquisition graph and reports each once.
func (lo *lockOrder) reportCycles() {
	adj := map[*types.Var][]*types.Var{}
	nodes := map[*types.Var]bool{}
	for _, e := range lo.edgeOrder {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	order := make([]*types.Var, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return varDisplay(order[i]) < varDisplay(order[j]) })
	for _, vs := range adj {
		sort.Slice(vs, func(i, j int) bool { return varDisplay(vs[i]) < varDisplay(vs[j]) })
	}

	const (
		white = iota
		gray
		black
	)
	color := map[*types.Var]int{}
	var stack []*types.Var
	seenCycles := map[string]bool{}

	var visit func(v *types.Var)
	visit = func(v *types.Var) {
		color[v] = gray
		stack = append(stack, v)
		for _, w := range adj[v] {
			switch color[w] {
			case white:
				visit(w)
			case gray:
				// Back edge: the cycle is the stack suffix starting at w.
				i := len(stack) - 1
				for i >= 0 && stack[i] != w {
					i--
				}
				if i >= 0 {
					lo.reportCycle(stack[i:], seenCycles)
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[v] = black
	}
	for _, n := range order {
		if color[n] == white {
			visit(n)
		}
	}
}

func (lo *lockOrder) reportCycle(cycle []*types.Var, seen map[string]bool) {
	labels := make([]string, len(cycle))
	for i, v := range cycle {
		labels[i] = varDisplay(v)
	}
	canon := append([]string(nil), labels...)
	sort.Strings(canon)
	key := strings.Join(canon, "|")
	if seen[key] {
		return
	}
	seen[key] = true

	var b strings.Builder
	b.WriteString("lock-order cycle: ")
	b.WriteString(labels[0])
	var firstPos token.Pos
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		data := lo.edges[lockEdge{from, to}]
		if i == 0 {
			firstPos = data.pos
		}
		pos := lo.pass.Fset.Position(data.pos)
		detail := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		if data.via != "" {
			detail += " via " + data.via
		}
		fmt.Fprintf(&b, " -> %s (%s)", labels[(i+1)%len(cycle)], detail)
	}
	lo.pass.Reportf(firstPos, "%s", b.String())
}

// fieldDisplay renders a struct field as "pkgpath.Owner.field" by locating
// the named struct type that declares it; it falls back to "pkgpath.field"
// for fields of anonymous structs.
func fieldDisplay(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return v.Name()
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return pkg.Path() + "." + tn.Name() + "." + v.Name()
			}
		}
	}
	return pkg.Path() + "." + v.Name()
}

// varDisplay renders a lock identity: struct fields as fieldDisplay, other
// variables as "pkgpath.name" (or the bare name for locals).
func varDisplay(v *types.Var) string {
	if v.IsField() {
		return fieldDisplay(v)
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name()
	}
	return v.Name()
}
