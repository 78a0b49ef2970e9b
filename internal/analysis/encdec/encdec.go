// Package encdec checks wire-format symmetry: for every encoder/decoder
// pair in a codec package (wire, summary, packet, trace, sketch), the
// byte-level writes of the encoder must mirror the byte-level reads of
// the decoder in offset, width and count — including fields behind
// version or kind gates, which must be gated by the same condition on
// both sides.
//
// Pairing is by name stem: EncodeX↔DecodeX, AppendX↔ParseX,
// MarshalX↔UnmarshalX, WriteX↔ReadX (prefixes mix freely — an AppendX
// pairs with a DecodeX of the same stem). Irregular pairs are declared
// with a doc-comment directive on either side:
//
//	//jaal:pair DecodeFrom
//
// The checker extracts an operation sketch from each side:
// binary.BigEndian.{PutUintN,AppendUintN,UintN} calls, byte-slice index
// reads and writes, and single-byte appends, each with a width and an
// offset (literal, sequentially assigned for append chains, or
// unknown). Same-package helper calls are inlined, op-free branches
// (length guards, error checks) are dropped, loops and op-bearing
// conditionals become structural groups that must match pairwise. When
// every offset on both sides is known the comparison is positional —
// a decoder may read fields in any order — otherwise widths are
// compared in sequence. Encoders that allocate make([]byte, N) with a
// constant N (or a local [N]byte array) are additionally checked to
// write exactly N bytes.
package encdec

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the encdec checker.
var Analyzer = &analysis.Analyzer{
	Name: "encdec",
	Doc:  "require encoder writes and decoder reads to agree in offset, width, count and gating",
	Run:  run,
}

// codecPackages names the package basenames whose encode/decode pairs
// are checked.
var codecPackages = map[string]bool{
	"wire":    true,
	"summary": true,
	"packet":  true,
	"trace":   true,
	"sketch":  true,
}

var encoderPrefixes = []string{"Encode", "Append", "Marshal", "Write"}
var decoderPrefixes = []string{"Decode", "Parse", "Unmarshal", "Read"}

const pairDirective = "//jaal:pair"

func run(pass *analysis.Pass) error {
	if !codecPackages[lastElem(pass.Pkg.Path())] {
		return nil
	}

	ex := &extractor{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		visiting: map[*ast.FuncDecl]bool{},
	}
	byName := map[string]*ast.FuncDecl{}
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fns = append(fns, fd)
			byName[fd.Name.Name] = fd
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				ex.decls[obj] = fd
			}
		}
	}

	type pair struct{ enc, dec *ast.FuncDecl }
	var pairs []pair
	paired := map[*ast.FuncDecl]bool{}

	// Explicit //jaal:pair directives first: they override stems.
	for _, fd := range fns {
		other := directiveTarget(fd)
		if other == "" {
			continue
		}
		cp := byName[other]
		if cp == nil {
			pass.Reportf(fd.Pos(), "jaal:pair names %s, which is not a function in this package", other)
			continue
		}
		if paired[fd] || paired[cp] {
			continue
		}
		enc, dec := fd, cp
		if role(dec.Name.Name) == "enc" || role(enc.Name.Name) == "dec" {
			enc, dec = dec, enc
		}
		pairs = append(pairs, pair{enc, dec})
		paired[enc], paired[dec] = true, true
	}

	// Stem pairing for the rest.
	encByStem := map[string]*ast.FuncDecl{}
	for _, fd := range fns {
		if paired[fd] || role(fd.Name.Name) != "enc" {
			continue
		}
		encByStem[stem(fd.Name.Name)] = fd
	}
	for _, fd := range fns {
		if paired[fd] || role(fd.Name.Name) != "dec" {
			continue
		}
		if enc := encByStem[stem(fd.Name.Name)]; enc != nil && !paired[enc] {
			pairs = append(pairs, pair{enc, fd})
			paired[enc], paired[fd] = true, true
		}
	}

	sort.Slice(pairs, func(i, j int) bool { return pairs[i].enc.Pos() < pairs[j].enc.Pos() })
	for _, pr := range pairs {
		encItems := filterRole(ex.extractFunc(pr.enc), true)
		decItems := filterRole(ex.extractFunc(pr.dec), false)
		if !hasOps(encItems) && !hasOps(decItems) {
			continue // not a byte codec (JSON writers etc.)
		}
		assignSequential(encItems)
		cmp := &comparer{pass: pass, encName: pr.enc.Name.Name, decName: pr.dec.Name.Name, encPos: pr.enc.Pos()}
		cmp.compare(encItems, decItems)
		checkAllocTotal(pass, ex, pr.enc, encItems)
	}
	return nil
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// role classifies a function name as encoder ("enc"), decoder ("dec"),
// or neither.
func role(name string) string {
	for _, p := range decoderPrefixes {
		if strings.HasPrefix(name, p) {
			return "dec"
		}
	}
	for _, p := range encoderPrefixes {
		if strings.HasPrefix(name, p) {
			return "enc"
		}
	}
	return ""
}

// stem strips the role prefix: EncodeLoadReport → LoadReport.
func stem(name string) string {
	for _, p := range append(append([]string{}, decoderPrefixes...), encoderPrefixes...) {
		if strings.HasPrefix(name, p) {
			return strings.TrimPrefix(name, p)
		}
	}
	return name
}

// directiveTarget returns the counterpart named by a //jaal:pair doc
// comment, or "".
func directiveTarget(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, pairDirective); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// ---- operation sketch ----

// op is one byte-level access.
type op struct {
	write  bool
	width  int
	off    int          // -1 when not statically known
	seq    bool         // append-style: offset follows the previous append
	buf    types.Object // buffer variable, nil when unknown
	endian string
	pos    token.Pos
}

// item is an op or a structural group (loop body, gated branch).
type item struct {
	op    *op
	kind  string // "", "loop", "cond"
	sig   string // normalized condition, kind=="cond"
	pos   token.Pos
	items []item
}

type extractor struct {
	pass     *analysis.Pass
	decls    map[*types.Func]*ast.FuncDecl
	visiting map[*ast.FuncDecl]bool
}

func (x *extractor) extractFunc(fd *ast.FuncDecl) []item {
	if x.visiting[fd] {
		return nil
	}
	x.visiting[fd] = true
	defer delete(x.visiting, fd)
	return x.stmts(fd.Body.List)
}

func (x *extractor) stmts(list []ast.Stmt) []item {
	var out []item
	for _, s := range list {
		out = append(out, x.stmt(s)...)
	}
	return out
}

func (x *extractor) stmt(s ast.Stmt) []item {
	switch s := s.(type) {
	case *ast.IfStmt:
		var out []item
		if s.Init != nil {
			out = append(out, x.stmt(s.Init)...)
		}
		out = append(out, x.expr(s.Cond)...)
		out = append(out, x.branch("cond", x.condSig(s.Cond), s.Body.Pos(), x.stmts(s.Body.List))...)
		if s.Else != nil {
			out = append(out, x.branch("cond", "!("+x.condSig(s.Cond)+")", s.Else.Pos(), x.stmt(s.Else))...)
		}
		return out
	case *ast.ForStmt:
		var out []item
		if s.Init != nil {
			out = append(out, x.stmt(s.Init)...)
		}
		if s.Cond != nil {
			out = append(out, x.expr(s.Cond)...)
		}
		body := x.stmts(s.Body.List)
		if s.Post != nil {
			body = append(body, x.stmt(s.Post)...)
		}
		return append(out, x.branch("loop", "", s.Pos(), body)...)
	case *ast.RangeStmt:
		out := x.expr(s.X)
		return append(out, x.branch("loop", "", s.Pos(), x.stmts(s.Body.List))...)
	case *ast.SwitchStmt:
		var out []item
		if s.Init != nil {
			out = append(out, x.stmt(s.Init)...)
		}
		if s.Tag != nil {
			out = append(out, x.expr(s.Tag)...)
		}
		for _, cc := range s.Body.List {
			c := cc.(*ast.CaseClause)
			sig := "default"
			if len(c.List) > 0 {
				var parts []string
				for _, e := range c.List {
					parts = append(parts, x.condSig(e))
				}
				sig = strings.Join(parts, ",")
			}
			out = append(out, x.branch("cond", sig, c.Pos(), x.stmts(c.Body))...)
		}
		return out
	case *ast.TypeSwitchStmt:
		var out []item
		for _, cc := range s.Body.List {
			c := cc.(*ast.CaseClause)
			out = append(out, x.branch("cond", "type", c.Pos(), x.stmts(c.Body))...)
		}
		return out
	case *ast.SelectStmt:
		var out []item
		for _, cc := range s.Body.List {
			c := cc.(*ast.CommClause)
			out = append(out, x.branch("cond", "comm", c.Pos(), x.stmts(c.Body))...)
		}
		return out
	case *ast.BlockStmt:
		return x.stmts(s.List)
	case *ast.LabeledStmt:
		return x.stmt(s.Stmt)
	case *ast.AssignStmt:
		var out []item
		for _, lhs := range s.Lhs {
			if o := x.indexWrite(lhs); o != nil {
				out = append(out, item{op: o})
			}
		}
		for _, rhs := range s.Rhs {
			out = append(out, x.expr(rhs)...)
		}
		return out
	case *ast.DeferStmt, *ast.GoStmt:
		return nil
	case *ast.ExprStmt:
		return x.expr(s.X)
	case *ast.ReturnStmt:
		var out []item
		for _, e := range s.Results {
			out = append(out, x.expr(e)...)
		}
		return out
	case *ast.DeclStmt:
		var out []item
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						out = append(out, x.expr(e)...)
					}
				}
			}
		}
		return out
	default:
		return nil
	}
}

// branch wraps body items into a group, dropping op-free branches
// (length guards and error returns are not wire structure).
func (x *extractor) branch(kind, sig string, pos token.Pos, body []item) []item {
	if !hasOps(body) {
		return nil
	}
	return []item{{kind: kind, sig: sig, pos: pos, items: body}}
}

// expr collects ops from an expression tree in evaluation order.
func (x *extractor) expr(e ast.Expr) []item {
	var out []item
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if x.diagnostic(n) {
				// Reads inside error-formatting and panic arguments
				// describe a failure; they are not wire structure.
				return false
			}
			if items, handled := x.call(n); handled {
				out = append(out, items...)
				return false
			}
		case *ast.IndexExpr:
			if o := x.indexRead(n); o != nil {
				out = append(out, item{op: o})
				return false
			}
		}
		return true
	})
	return out
}

// call handles the recognized op-producing calls; handled=false lets
// the generic walk continue.
func (x *extractor) call(call *ast.CallExpr) ([]item, bool) {
	// binary.BigEndian.{PutUintN, AppendUintN, UintN}.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if inner, ok := sel.X.(*ast.SelectorExpr); ok &&
			(inner.Sel.Name == "BigEndian" || inner.Sel.Name == "LittleEndian") {
			endian := inner.Sel.Name
			name := sel.Sel.Name
			width := widthOf(name)
			if width > 0 && len(call.Args) >= 1 {
				var out []item
				switch {
				case strings.HasPrefix(name, "PutUint"):
					buf, off := x.bufAndOff(call.Args[0])
					out = append(out, item{op: &op{write: true, width: width, off: off, buf: buf, endian: endian, pos: call.Pos()}})
					for _, a := range call.Args[1:] {
						out = append(out, x.expr(a)...)
					}
				case strings.HasPrefix(name, "AppendUint"):
					buf, _ := x.bufAndOff(call.Args[0])
					out = append(out, item{op: &op{write: true, width: width, off: -1, seq: true, buf: buf, endian: endian, pos: call.Pos()}})
					for _, a := range call.Args[1:] {
						out = append(out, x.expr(a)...)
					}
				default: // UintN read
					buf, off := x.bufAndOff(call.Args[0])
					out = append(out, item{op: &op{width: width, off: off, buf: buf, endian: endian, pos: call.Pos()}})
				}
				return out, true
			}
		}
	}
	// append(dst, b0, b1, ...) of byte values.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) >= 2 {
		if x.isByteSlice(call.Args[0]) {
			var out []item
			if call.Ellipsis == token.NoPos {
				buf, _ := x.bufAndOff(call.Args[0])
				for _, a := range call.Args[1:] {
					if x.isByteValue(a) {
						out = append(out, item{op: &op{write: true, width: 1, off: -1, seq: true, buf: buf, pos: a.Pos()}})
					}
					out = append(out, x.expr(a)...)
				}
			}
			// append(dst, local[:]...) flushes a buffer whose writes
			// were already counted: no ops.
			return out, true
		}
	}
	// Same-package helper: inline its sketch.
	if fd := x.callee(call); fd != nil {
		inlined := x.extractFunc(fd)
		var out []item
		out = append(out, inlined...)
		for _, a := range call.Args {
			out = append(out, x.expr(a)...)
		}
		return out, true
	}
	return nil, false
}

// diagnostic reports whether call formats a failure — a fmt-package
// call or a builtin panic. Byte reads inside such arguments (the
// "unknown kind byte %d" style) are diagnostic, not decode ops.
func (x *extractor) diagnostic(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, builtin := x.pass.TypesInfo.Uses[fun].(*types.Builtin)
			return builtin
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := x.pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() == "fmt"
			}
		}
	}
	return false
}

// callee resolves a call to a same-package FuncDecl, or nil.
func (x *extractor) callee(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := x.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != x.pass.Pkg {
		return nil
	}
	return x.decls[fn]
}

// indexWrite recognizes buf[i] = v on a byte buffer.
func (x *extractor) indexWrite(lhs ast.Expr) *op {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok || !x.isByteSlice(ix.X) {
		return nil
	}
	buf, _ := x.bufAndOff(ix.X)
	return &op{write: true, width: 1, off: x.constVal(ix.Index), buf: buf, pos: ix.Pos()}
}

// indexRead recognizes a read of buf[i] on a byte buffer.
func (x *extractor) indexRead(ix *ast.IndexExpr) *op {
	if !x.isByteSlice(ix.X) {
		return nil
	}
	buf, _ := x.bufAndOff(ix.X)
	return &op{width: 1, off: x.constVal(ix.Index), buf: buf, pos: ix.Pos()}
}

// bufAndOff unwraps buf, buf[k:], buf[k] to the underlying buffer
// object and the static offset (bare buffer = offset 0).
func (x *extractor) bufAndOff(e ast.Expr) (types.Object, int) {
	off := 0
	for {
		switch t := e.(type) {
		case *ast.SliceExpr:
			if t.Low == nil {
				off = 0
			} else {
				off = x.constVal(t.Low)
			}
			e = t.X
		case *ast.IndexExpr:
			off = x.constVal(t.Index)
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			var obj types.Object = x.pass.TypesInfo.Uses[t]
			if obj == nil {
				obj = x.pass.TypesInfo.Defs[t]
			}
			return obj, off
		case *ast.SelectorExpr:
			return x.pass.TypesInfo.Uses[t.Sel], off
		default:
			return nil, off
		}
	}
}

// constVal evaluates e as a compile-time int, or -1.
func (x *extractor) constVal(e ast.Expr) int {
	tv, ok := x.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return -1
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok || v < 0 {
		return -1
	}
	return int(v)
}

func (x *extractor) isByteSlice(e ast.Expr) bool {
	tv, ok := x.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		return isByte(t.Elem())
	case *types.Array:
		return isByte(t.Elem())
	case *types.Pointer:
		if a, ok := t.Elem().Underlying().(*types.Array); ok {
			return isByte(a.Elem())
		}
	}
	return false
}

func (x *extractor) isByteValue(e ast.Expr) bool {
	tv, ok := x.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	return isByte(tv.Type)
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.UntypedInt)
}

func widthOf(name string) int {
	switch {
	case strings.HasSuffix(name, "16"):
		return 2
	case strings.HasSuffix(name, "32"):
		return 4
	case strings.HasSuffix(name, "64"):
		return 8
	}
	return 0
}

// condSig renders a condition with function-local variables normalized
// to "·", so Marshal's `s.Kind == KindSplit` and Unmarshal's
// `s.Kind == KindSplit` compare equal regardless of receiver names.
func (x *extractor) condSig(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := x.pass.TypesInfo.Uses[e]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Parent() != x.pass.Pkg.Scope() && !v.IsField() {
				return "·"
			}
		}
		return e.Name
	case *ast.SelectorExpr:
		return x.condSig(e.X) + "." + e.Sel.Name
	case *ast.BinaryExpr:
		return x.condSig(e.X) + e.Op.String() + x.condSig(e.Y)
	case *ast.UnaryExpr:
		return e.Op.String() + x.condSig(e.X)
	case *ast.ParenExpr:
		return x.condSig(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		var args []string
		for _, a := range e.Args {
			args = append(args, x.condSig(a))
		}
		return x.condSig(e.Fun) + "(" + strings.Join(args, ",") + ")"
	case *ast.IndexExpr:
		return x.condSig(e.X) + "[" + x.condSig(e.Index) + "]"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// ---- filtering and offset assignment ----

// filterRole keeps writes (wantWrite) or reads, recursively, dropping
// groups left empty.
func filterRole(items []item, wantWrite bool) []item {
	var out []item
	for _, it := range items {
		if it.op != nil {
			if it.op.write == wantWrite {
				out = append(out, it)
			}
			continue
		}
		kids := filterRole(it.items, wantWrite)
		if hasOps(kids) {
			g := it
			g.items = kids
			out = append(out, g)
		}
	}
	return out
}

func hasOps(items []item) bool {
	for _, it := range items {
		if it.op != nil {
			return true
		}
		if hasOps(it.items) {
			return true
		}
	}
	return false
}

// assignSequential gives append-chain ops concrete offsets for the
// straight-line prefix of the function: the first append lands at 0,
// each next right after. The chain stops at the first group (loops
// repeat, gates may not run), after which appended offsets stay
// unknown.
func assignSequential(items []item) {
	run := 0
	for i := range items {
		it := &items[i]
		if it.op == nil {
			return // group reached: further append offsets are unknowable
		}
		if it.op.seq && it.op.off < 0 && run >= 0 {
			it.op.off = run
			run += it.op.width
		} else if it.op.seq && it.op.off < 0 {
			return
		}
	}
}

// ---- comparison ----

type comparer struct {
	pass             *analysis.Pass
	encName, decName string
	encPos           token.Pos
}

func (c *comparer) compare(enc, dec []item) {
	encOps, encGroups := split(enc)
	decOps, decGroups := split(dec)

	c.compareOps(encOps, decOps)

	if len(encGroups) != len(decGroups) {
		pos := c.encPos
		if len(encGroups) > 0 {
			pos = encGroups[0].pos
		} else if len(decGroups) > 0 {
			pos = decGroups[0].pos
		}
		c.pass.Reportf(pos, "%s has %d gated/looped field blocks but %s has %d; wire structure differs",
			c.encName, len(encGroups), c.decName, len(decGroups))
		return
	}
	for i := range encGroups {
		eg, dg := encGroups[i], decGroups[i]
		if eg.kind != dg.kind {
			c.pass.Reportf(eg.pos, "%s block %d is a %s but %s has a %s; wire structure differs",
				c.encName, i+1, eg.kind, c.decName, dg.kind)
			continue
		}
		if eg.kind == "cond" && eg.sig != dg.sig {
			c.pass.Reportf(eg.pos, "conditional fields gated differently: %s writes under %q, %s reads under %q",
				c.encName, eg.sig, c.decName, dg.sig)
		}
		c.compare(eg.items, dg.items)
	}
}

func split(items []item) (ops []*op, groups []item) {
	for _, it := range items {
		if it.op != nil {
			ops = append(ops, it.op)
		} else {
			groups = append(groups, it)
		}
	}
	return ops, groups
}

func (c *comparer) compareOps(writes, reads []*op) {
	if allKnown(writes) && allKnown(reads) {
		c.compareByOffset(writes, reads)
		return
	}
	// Positional fallback: widths in order.
	n := len(writes)
	if len(reads) < n {
		n = len(reads)
	}
	for i := 0; i < n; i++ {
		if writes[i].width != reads[i].width {
			c.pass.Reportf(writes[i].pos, "field %d: %s writes %d bytes where %s reads %d",
				i+1, c.encName, writes[i].width, c.decName, reads[i].width)
			return // later positions shift; one report is the signal
		}
		if writes[i].endian != "" && reads[i].endian != "" && writes[i].endian != reads[i].endian {
			c.pass.Reportf(writes[i].pos, "field %d: %s writes %s but %s reads %s",
				i+1, c.encName, writes[i].endian, c.decName, reads[i].endian)
		}
	}
	if len(writes) != len(reads) {
		pos := c.encPos
		if len(writes) > n {
			pos = writes[n].pos
		} else if len(reads) > n {
			pos = reads[n].pos
		}
		c.pass.Reportf(pos, "%s writes %d fields but %s reads %d", c.encName, len(writes), c.decName, len(reads))
	}
}

// compareByOffset matches writes to reads by (offset, width) sets —
// decoders may read fields in any order — after collapsing duplicate
// accesses to the same bytes.
func (c *comparer) compareByOffset(writes, reads []*op) {
	type key struct{ off, width int }
	wset := map[key]*op{}
	for _, o := range writes {
		wset[key{o.off, o.width}] = o
	}
	rset := map[key]*op{}
	for _, o := range reads {
		rset[key{o.off, o.width}] = o
	}
	var unmatchedW []*op
	for k, o := range wset {
		r, ok := rset[k]
		if !ok {
			unmatchedW = append(unmatchedW, o)
			continue
		}
		if o.endian != "" && r.endian != "" && o.endian != r.endian {
			c.pass.Reportf(o.pos, "offset %d: %s writes %s but %s reads %s", o.off, c.encName, o.endian, c.decName, r.endian)
		}
		delete(rset, k)
	}
	sort.Slice(unmatchedW, func(i, j int) bool { return unmatchedW[i].off < unmatchedW[j].off })
	var unmatchedR []*op
	for _, o := range rset {
		unmatchedR = append(unmatchedR, o)
	}
	sort.Slice(unmatchedR, func(i, j int) bool { return unmatchedR[i].off < unmatchedR[j].off })

	for _, w := range unmatchedW {
		// A read at the same offset with another width is a width
		// mismatch, clearer than two one-sided reports.
		merged := false
		for i, r := range unmatchedR {
			if r.off == w.off {
				c.pass.Reportf(w.pos, "offset %d: %s writes %d bytes but %s reads %d",
					w.off, c.encName, w.width, c.decName, r.width)
				unmatchedR = append(unmatchedR[:i], unmatchedR[i+1:]...)
				merged = true
				break
			}
		}
		if !merged {
			c.pass.Reportf(w.pos, "%s writes %d bytes at offset %d that %s never reads",
				c.encName, w.width, w.off, c.decName)
		}
	}
	for _, r := range unmatchedR {
		c.pass.Reportf(r.pos, "%s reads %d bytes at offset %d that %s never writes",
			c.decName, r.width, r.off, c.encName)
	}
}

func allKnown(ops []*op) bool {
	for _, o := range ops {
		if o.off < 0 {
			return false
		}
	}
	return true
}

// ---- allocation-total check ----

// checkAllocTotal verifies that an encoder allocating make([]byte, N)
// with constant N > 0, or writing through a local [N]byte array, covers
// exactly N bytes with its statically-known writes.
func checkAllocTotal(pass *analysis.Pass, ex *extractor, enc *ast.FuncDecl, items []item) {
	// Collect constant-sized buffers declared in the encoder itself.
	sized := map[types.Object]struct {
		n   int
		pos token.Pos
	}{}
	ast.Inspect(enc.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 || i >= len(n.Lhs) {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
					continue
				}
				if !ex.isByteSlice(rhs) {
					continue
				}
				size := ex.constVal(call.Args[1])
				if size <= 0 {
					continue
				}
				if lid, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := ex.pass.TypesInfo.Defs[lid]; obj != nil {
						sized[obj] = struct {
							n   int
							pos token.Pos
						}{size, call.Pos()}
					}
				}
			}
		case *ast.ValueSpec:
			if arr, ok := n.Type.(*ast.ArrayType); ok && arr.Len != nil {
				size := ex.constVal(arr.Len)
				if size > 0 && len(n.Names) == 1 {
					if obj := ex.pass.TypesInfo.Defs[n.Names[0]]; obj != nil && ex.isByteSliceType(obj.Type()) {
						sized[obj] = struct {
							n   int
							pos token.Pos
						}{size, n.Pos()}
					}
				}
			}
		}
		return true
	})
	if len(sized) == 0 {
		return
	}
	// Top-level known writes per buffer.
	covered := map[types.Object]int{}
	known := map[types.Object]bool{}
	for o := range sized {
		known[o] = true
	}
	for _, it := range items {
		if it.op == nil {
			// Writes inside loops/gates are not statically sized; any
			// buffer touched there is exempt.
			exemptBuffers(it.items, known)
			continue
		}
		o := it.op
		if o.buf == nil {
			continue
		}
		if _, tracked := sized[o.buf]; !tracked {
			continue
		}
		if o.off < 0 {
			known[o.buf] = false
			continue
		}
		if end := o.off + o.width; end > covered[o.buf] {
			covered[o.buf] = end
		}
	}
	for obj, s := range sized {
		if !known[obj] || covered[obj] == 0 {
			continue
		}
		if covered[obj] != s.n {
			pass.Reportf(s.pos, "%s sizes %s at %d bytes but its writes cover %d",
				enc.Name.Name, obj.Name(), s.n, covered[obj])
		}
	}
}

func exemptBuffers(items []item, known map[types.Object]bool) {
	for _, it := range items {
		if it.op != nil {
			if it.op.buf != nil {
				known[it.op.buf] = false
			}
			continue
		}
		exemptBuffers(it.items, known)
	}
}

func (x *extractor) isByteSliceType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isByte(u.Elem())
	case *types.Array:
		return isByte(u.Elem())
	}
	return false
}
