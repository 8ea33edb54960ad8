// Package directive parses the zbpcheck source annotations shared by
// every analyzer in the suite:
//
//	//zbp:hotpath
//	    On a function declaration's doc comment: the function is a
//	    zero-allocation hot path; the hotalloc analyzer checks its body.
//
//	//zbp:allow <analyzer> <reason>
//	    On (or immediately above) an offending line: suppress the named
//	    analyzer's diagnostics on that line. The reason is mandatory,
//	    and an allow that suppresses nothing is itself reported, so
//	    stale escape hatches cannot accumulate.
//
//	//zbp:wallclock <reason>
//	    Determinism-analyzer shorthand for an annotated wall-clock
//	    site: equivalent to //zbp:allow determinism <reason>, kept
//	    distinct so intent is greppable.
//
//	//zbp:bounded <reason>
//	    On (or immediately above) a loop with no statically evident
//	    bound (for {} or range over a channel): asserts termination for
//	    the ctxflow analyzer, with a mandatory reason naming the actual
//	    bound (EOF, closed channel, ...).
//
//	//zbp:locked <reason>
//	    For the lockorder analyzer. On (or immediately above) a
//	    blocking operation: the block-while-holding-a-mutex is
//	    sanctioned, with a mandatory reason. On a function
//	    declaration's doc comment: every blocking operation in the
//	    body is sanctioned and the function's blocking summary is not
//	    propagated to callers (the fsync-under-lock durability idiom).
//
//	//zbp:guardedby <field>
//	    On a struct field: every read or write of the field must hold
//	    the named sibling mutex; the guardedby analyzer checks all
//	    access sites.
//
//	//zbp:caller-holds <field>
//	    On a function declaration's doc comment: the function is only
//	    called with the named mutex (a receiver field or package-level
//	    sync var) already held; guardedby and lockorder treat it as
//	    held on entry.
//
//	//zbp:durable <description...>
//	    On a function declaration's doc comment: the function is part
//	    of the crash-durability protocol; the durable analyzer checks
//	    its effect order (journal append fsynced before state
//	    mutation; temp-file Sync -> Rename -> directory Sync).
//
//	//zbp:layout <name> word:<w> [unit:byte] <field>[<count>]:<lo>[..<hi>] ...
//	//zbp:layout <name> pack|unpack|uses
//	    For the packlayout analyzer. The first (declaration) form, on a
//	    constant block's or function's doc comment, declares a packed
//	    binary layout: a <w>-unit word (bits by default, bytes with
//	    unit:byte) carved into named fields. Bounds are sums of integer
//	    literals, package constants, and at most one @ident symbolic
//	    term (a runtime geometry quantity, matched against selector
//	    field names at use sites); <field>[<count>] declares an array
//	    of <count> consecutive copies. The second (role) form, on a
//	    pack/unpack function's doc comment, binds the function's body
//	    to a declared layout — local by name, cross-package as
//	    "pkg.name" — so every shift/mask/or is checked against the
//	    declaration; "uses" checks accesses without demanding full
//	    field coverage.
//
// Annotations are plain line comments and must start exactly with
// "//zbp:" (no space), mirroring the //go: directive convention.
package directive

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Allow is one parsed //zbp:allow (or //zbp:wallclock) directive.
type Allow struct {
	Pos       token.Pos // position of the comment
	File      string    // file the comment lives in
	Line      int       // line the comment starts on
	Analyzer  string    // analyzer name the allow addresses
	Reason    string    // mandatory justification
	Used      bool      // set when the allow suppresses a diagnostic
	Malformed bool      // missing analyzer name or reason
}

// AllowSet holds the directives of one package that address one
// analyzer, plus enough position context to match them to diagnostics.
type AllowSet struct {
	analyzer string
	fset     *token.FileSet
	allows   []*Allow
}

const (
	prefix          = "//zbp:"
	allowPrefix     = "//zbp:allow"
	wallclockPrefix = "//zbp:wallclock"
	hotpathPrefix   = "//zbp:hotpath"
	boundedPrefix   = "//zbp:bounded"
	lockedPrefix    = "//zbp:locked"
	durablePrefix   = "//zbp:durable"
	holdsPrefix     = "//zbp:caller-holds"
	layoutPrefix    = "//zbp:layout"
)

// CollectAllows scans every comment in the pass for //zbp:allow
// directives addressing the named analyzer. //zbp:wallclock is folded
// in as an allow for "determinism".
func CollectAllows(pass *analysis.Pass, analyzer string) *AllowSet {
	s := &AllowSet{analyzer: analyzer, fset: pass.Fset}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := parseAllow(c)
				if !ok {
					continue
				}
				a.File = pass.Fset.Position(c.Pos()).Filename
				a.Line = pass.Fset.Position(c.Pos()).Line
				a.Pos = c.Pos()
				// A malformed allow with no analyzer name is collected by
				// every analyzer; the multichecker dedupes the identical
				// diagnostics.
				if a.Analyzer == analyzer || (a.Malformed && a.Analyzer == "") {
					s.allows = append(s.allows, a)
				}
			}
		}
	}
	return s
}

// parseAllow recognizes //zbp:allow and //zbp:wallclock comments.
func parseAllow(c *ast.Comment) (*Allow, bool) {
	switch {
	case strings.HasPrefix(c.Text, allowPrefix):
		rest := strings.TrimPrefix(c.Text, allowPrefix)
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			return nil, false // e.g. //zbp:allowance
		}
		fields := strings.Fields(rest)
		a := &Allow{}
		if len(fields) == 0 {
			a.Malformed = true
			return a, true
		}
		a.Analyzer = fields[0]
		if len(fields) < 2 {
			a.Malformed = true
			return a, true
		}
		a.Reason = strings.Join(fields[1:], " ")
		return a, true
	case strings.HasPrefix(c.Text, wallclockPrefix):
		rest := strings.TrimPrefix(c.Text, wallclockPrefix)
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			return nil, false
		}
		a := &Allow{Analyzer: "determinism", Reason: strings.TrimSpace(rest)}
		if a.Reason == "" {
			a.Malformed = true
		}
		return a, true
	}
	return nil, false
}

// Permit reports whether a diagnostic at pos is suppressed by an allow
// on the same line or the line immediately above, and marks the
// matching allow used.
func (s *AllowSet) Permit(pos token.Pos) bool {
	p := s.fset.Position(pos)
	for _, a := range s.allows {
		if a.Malformed || a.File != p.Filename {
			continue
		}
		if a.Line == p.Line || a.Line == p.Line-1 {
			a.Used = true
			return true
		}
	}
	return false
}

// Report is the allow-aware reporting helper every analyzer in the
// suite funnels through: the diagnostic is dropped (and the allow
// consumed) when a directive covers rng's position.
func (s *AllowSet) Report(pass *analysis.Pass, rng analysis.Range, format string, args ...interface{}) {
	if s.Permit(rng.Pos()) {
		return
	}
	pass.ReportRangef(rng, format, args...)
}

// ReportUnused reports every malformed allow and every allow that
// suppressed nothing. Run it after the analyzer's main pass: an
// escape hatch that is not load-bearing is itself a finding.
func (s *AllowSet) ReportUnused(pass *analysis.Pass) {
	for _, a := range s.allows {
		switch {
		case a.Malformed:
			pass.Reportf(a.Pos, "malformed //zbp:allow: want //zbp:allow <analyzer> <reason>")
		case !a.Used:
			pass.Reportf(a.Pos, "unused //zbp:allow %s: no %s diagnostic on this or the next line; delete the stale escape hatch", s.analyzer, s.analyzer)
		}
	}
}

// HasHotpath reports whether fn's doc comment carries //zbp:hotpath.
func HasHotpath(fn *ast.FuncDecl) bool {
	return hasDocDirective(fn, hotpathPrefix)
}

func hasDocDirective(fn *ast.FuncDecl, want string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// Bounded is one parsed //zbp:bounded directive.
type Bounded struct {
	Pos       token.Pos // position of the comment
	File      string    // file the comment lives in
	Line      int       // line the comment starts on
	Reason    string    // mandatory termination argument
	Used      bool      // set when the directive exempts a loop
	Malformed bool      // missing reason
}

// BoundedSet holds one package's //zbp:bounded directives with enough
// position context to match them to loops.
type BoundedSet struct {
	fset    *token.FileSet
	bounded []*Bounded
}

// CollectBounded scans every comment in the pass for //zbp:bounded.
func CollectBounded(pass *analysis.Pass) *BoundedSet {
	s := &BoundedSet{fset: pass.Fset}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				b, ok := parseBounded(c)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				b.File, b.Line, b.Pos = p.Filename, p.Line, c.Pos()
				s.bounded = append(s.bounded, b)
			}
		}
	}
	return s
}

func parseBounded(c *ast.Comment) (*Bounded, bool) {
	if !strings.HasPrefix(c.Text, boundedPrefix) {
		return nil, false
	}
	rest := strings.TrimPrefix(c.Text, boundedPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //zbp:boundedness
	}
	b := &Bounded{Reason: strings.TrimSpace(rest)}
	if b.Reason == "" {
		b.Malformed = true
	}
	return b, true
}

// Exempt reports whether a loop starting at pos carries a //zbp:bounded
// directive on the same line or the line immediately above, and marks
// the matching directive used.
func (s *BoundedSet) Exempt(pos token.Pos) bool {
	p := s.fset.Position(pos)
	for _, b := range s.bounded {
		if b.Malformed || b.File != p.Filename {
			continue
		}
		if b.Line == p.Line || b.Line == p.Line-1 {
			b.Used = true
			return true
		}
	}
	return false
}

// ReportUnused reports every malformed //zbp:bounded and every one that
// exempted no loop: a termination assertion on a statically bounded (or
// since-deleted) loop is rot.
func (s *BoundedSet) ReportUnused(pass *analysis.Pass) {
	for _, b := range s.bounded {
		switch {
		case b.Malformed:
			pass.Reportf(b.Pos, "malformed //zbp:bounded: want //zbp:bounded <reason>")
		case !b.Used:
			pass.Reportf(b.Pos, "unused //zbp:bounded: no unbounded loop on this or the next line; delete the stale annotation")
		}
	}
}

// HasDurable reports whether fn's doc comment carries //zbp:durable.
func HasDurable(fn *ast.FuncDecl) bool {
	return hasDocDirective(fn, durablePrefix)
}

// DocLocked reports whether fn's doc comment carries //zbp:locked,
// sanctioning every blocking operation in the body (and truncating the
// function's blocking summary). The reason is mandatory; a bare
// //zbp:locked in a doc comment reads as declared with an empty reason
// so lockorder can reject it.
func DocLocked(fn *ast.FuncDecl) (reason string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if c.Text == lockedPrefix {
			return "", true
		}
		if rest, found := strings.CutPrefix(c.Text, lockedPrefix+" "); found {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// CallerHolds returns the mutex names fn's doc comment declares via
// //zbp:caller-holds (one name per directive line). Empty when the
// function carries no such directive.
func CallerHolds(fn *ast.FuncDecl) []string {
	if fn.Doc == nil {
		return nil
	}
	var names []string
	for _, c := range fn.Doc.List {
		if c.Text == holdsPrefix {
			names = append(names, "") // malformed: consumer reports it
			continue
		}
		rest, found := strings.CutPrefix(c.Text, holdsPrefix+" ")
		if !found {
			rest, found = strings.CutPrefix(c.Text, holdsPrefix+"\t")
		}
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			names = append(names, "")
			continue
		}
		names = append(names, fields...)
	}
	return names
}

// Locked is one parsed line-level //zbp:locked directive.
type Locked struct {
	Pos       token.Pos // position of the comment
	File      string    // file the comment lives in
	Line      int       // line the comment starts on
	Reason    string    // mandatory justification
	Used      bool      // set when the directive sanctions a blocking op
	Malformed bool      // missing reason
	InFuncDoc bool      // doc-comment form; usedness is tracked per function instead
}

// LockedSet holds one package's //zbp:locked directives with enough
// position context to match them to blocking operations.
type LockedSet struct {
	fset   *token.FileSet
	locked []*Locked
}

// CollectLocked scans every comment in the pass for //zbp:locked.
// Directives inside function doc comments are collected but marked
// InFuncDoc; DocLocked is their consumer and ReportUnused skips them.
func CollectLocked(pass *analysis.Pass) *LockedSet {
	s := &LockedSet{fset: pass.Fset}
	for _, f := range pass.Files {
		docs := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				docs[fn.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				l, ok := parseLocked(c)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				l.File, l.Line, l.Pos = p.Filename, p.Line, c.Pos()
				l.InFuncDoc = docs[cg]
				s.locked = append(s.locked, l)
			}
		}
	}
	return s
}

func parseLocked(c *ast.Comment) (*Locked, bool) {
	if !strings.HasPrefix(c.Text, lockedPrefix) {
		return nil, false
	}
	rest := strings.TrimPrefix(c.Text, lockedPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //zbp:lockedness
	}
	l := &Locked{Reason: strings.TrimSpace(rest)}
	if l.Reason == "" {
		l.Malformed = true
	}
	return l, true
}

// Exempt reports whether a blocking operation at pos carries a
// line-level //zbp:locked on the same line or the line immediately
// above, and marks the matching directive used.
func (s *LockedSet) Exempt(pos token.Pos) bool {
	p := s.fset.Position(pos)
	for _, l := range s.locked {
		if l.Malformed || l.InFuncDoc || l.File != p.Filename {
			continue
		}
		if l.Line == p.Line || l.Line == p.Line-1 {
			l.Used = true
			return true
		}
	}
	return false
}

// Covers reports whether a line-level //zbp:locked sits on pos's line
// or the line immediately above, without marking it used — the summary
// pass asks, only the reporting pass consumes.
func (s *LockedSet) Covers(pos token.Pos) bool {
	p := s.fset.Position(pos)
	for _, l := range s.locked {
		if l.Malformed || l.InFuncDoc || l.File != p.Filename {
			continue
		}
		if l.Line == p.Line || l.Line == p.Line-1 {
			return true
		}
	}
	return false
}

// ReportUnused reports every malformed line-level //zbp:locked and
// every one that sanctioned no blocking operation. Doc-comment forms
// are owned by DocLocked's consumer and skipped here.
func (s *LockedSet) ReportUnused(pass *analysis.Pass) {
	for _, l := range s.locked {
		if l.InFuncDoc {
			continue
		}
		switch {
		case l.Malformed:
			pass.Reportf(l.Pos, "malformed //zbp:locked: want //zbp:locked <reason>")
		case !l.Used:
			pass.Reportf(l.Pos, "unused //zbp:locked: no blocking operation on this or the next line; delete the stale annotation")
		}
	}
}

// Split decomposes any //zbp: comment into its directive kind (the
// token after the colon) and the remaining text. It is the shared
// front end of the staledirective analyzer; ok is false for ordinary
// comments.
func Split(c *ast.Comment) (kind, rest string, ok bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return "", "", false
	}
	body := strings.TrimPrefix(c.Text, prefix)
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i+1:]), true
	}
	return body, "", true
}

// PkgLastElem returns the final slash-separated element of a package
// path: "bulkpreload/internal/btb" and a fixture's bare "btb" both map
// to "btb", which is how the analyzers scope themselves to the
// reproducibility-critical packages in real and test trees alike.
func PkgLastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// LayoutField is one raw field spec of a //zbp:layout declaration. The
// bound strings are unresolved expressions (sums of integer literals,
// package constant names, and at most one @ident symbolic term); the
// packlayout analyzer resolves them against the package scope.
type LayoutField struct {
	Name  string
	Count int64  // array repetition; 1 for scalar fields
	Lo    string // raw lower-bound expression
	Hi    string // raw upper-bound expression; equals Lo for single-unit fields
}

// Layout is one parsed //zbp:layout comment: either a declaration
// (Decl with Word/Unit/Fields set) or a role binding (Roles set).
type Layout struct {
	Pos    token.Pos
	Name   string // layout name, possibly qualified "pkg.name"
	Decl   bool   // declaration form
	Word   string // raw word-width expression (declaration form)
	Unit   string // "bit" (default) or "byte"
	Fields []LayoutField
	Roles  []string // "pack", "unpack", "uses" (role form)
	Errs   []string // malformed-spec messages; staledirective reports them
}

// layoutNameRE admits a layout or field name, with an optional single
// package qualifier on layout names.
var layoutNameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// layoutQualifiedRE admits "name" or "pkg.name".
var layoutQualifiedRE = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*\.)?[A-Za-z_][A-Za-z0-9_]*$`)

// ParseLayout recognizes //zbp:layout comments. ok is false for other
// comments; a recognized but malformed directive comes back with Errs
// set so staledirective can report it (and packlayout can skip it).
func ParseLayout(c *ast.Comment) (*Layout, bool) {
	if !strings.HasPrefix(c.Text, layoutPrefix) {
		return nil, false
	}
	rest := strings.TrimPrefix(c.Text, layoutPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //zbp:layouts
	}
	l := &Layout{Pos: c.Pos(), Unit: "bit"}
	fields := strings.Fields(rest)
	for i, tok := range fields {
		if strings.HasPrefix(tok, "//") {
			fields = fields[:i] // trailing commentary after // is not part of the spec
			break
		}
	}
	if len(fields) == 0 {
		l.Errs = append(l.Errs, "missing layout name: want //zbp:layout <name> word:<w> <field>:<lo>[..<hi>] ... or //zbp:layout <name> pack|unpack|uses")
		return l, true
	}
	l.Name = fields[0]
	if !layoutQualifiedRE.MatchString(l.Name) {
		l.Errs = append(l.Errs, fmt.Sprintf("invalid layout name %q", l.Name))
	}
	sawUnit := false
	for _, tok := range fields[1:] {
		switch {
		case tok == "pack" || tok == "unpack" || tok == "uses":
			l.Roles = append(l.Roles, tok)
		case strings.HasPrefix(tok, "word:"):
			if l.Word != "" {
				l.Errs = append(l.Errs, "word: given twice")
			}
			l.Word = strings.TrimPrefix(tok, "word:")
			if l.Word == "" {
				l.Errs = append(l.Errs, "empty word: width")
			}
		case strings.HasPrefix(tok, "unit:"):
			sawUnit = true
			l.Unit = strings.TrimPrefix(tok, "unit:")
			if l.Unit != "bit" && l.Unit != "byte" {
				l.Errs = append(l.Errs, fmt.Sprintf("unknown unit %q: want bit or byte", l.Unit))
			}
		default:
			f, err := parseLayoutField(tok)
			if err != "" {
				l.Errs = append(l.Errs, err)
				continue
			}
			l.Fields = append(l.Fields, f)
		}
	}
	l.Decl = l.Word != "" || len(l.Fields) > 0 || sawUnit
	switch {
	case l.Decl && len(l.Roles) > 0:
		l.Errs = append(l.Errs, "mixes a layout declaration with a pack/unpack role; use separate //zbp:layout lines")
	case l.Decl && l.Word == "":
		l.Errs = append(l.Errs, "declaration is missing its word:<width>")
	case l.Decl && len(l.Fields) == 0:
		l.Errs = append(l.Errs, "declaration has no fields")
	case !l.Decl && len(l.Roles) == 0:
		l.Errs = append(l.Errs, "want a declaration (word:<w> <field>:<lo>[..<hi>] ...) or a role (pack, unpack, uses) after the layout name")
	}
	return l, true
}

// parseLayoutField parses one <name>[<count>]:<lo>[..<hi>] token.
func parseLayoutField(tok string) (LayoutField, string) {
	i := strings.IndexByte(tok, ':')
	if i < 0 {
		return LayoutField{}, fmt.Sprintf("field spec %q has no ':<lo>[..<hi>]' bounds", tok)
	}
	f := LayoutField{Name: tok[:i], Count: 1}
	bounds := tok[i+1:]
	if open := strings.IndexByte(f.Name, '['); open >= 0 {
		if !strings.HasSuffix(f.Name, "]") {
			return LayoutField{}, fmt.Sprintf("field spec %q has an unterminated [count]", tok)
		}
		cnt := f.Name[open+1 : len(f.Name)-1]
		f.Name = f.Name[:open]
		n, err := strconv.ParseInt(cnt, 10, 64)
		if err != nil || n < 1 {
			return LayoutField{}, fmt.Sprintf("field spec %q has a bad [count] %q (want a positive integer)", tok, cnt)
		}
		f.Count = n
	}
	if !layoutNameRE.MatchString(f.Name) {
		return LayoutField{}, fmt.Sprintf("invalid field name %q", f.Name)
	}
	f.Lo = bounds
	f.Hi = bounds
	if j := strings.Index(bounds, ".."); j >= 0 {
		f.Lo, f.Hi = bounds[:j], bounds[j+2:]
	}
	if f.Lo == "" || f.Hi == "" {
		return LayoutField{}, fmt.Sprintf("field spec %q has empty bounds", tok)
	}
	return f, ""
}

// DocLayouts parses every //zbp:layout line of a doc comment,
// well-formed or not. Nil when the group carries none.
func DocLayouts(doc *ast.CommentGroup) []*Layout {
	if doc == nil {
		return nil
	}
	var out []*Layout
	for _, c := range doc.List {
		if l, ok := ParseLayout(c); ok {
			out = append(out, l)
		}
	}
	return out
}

// HasLayout reports whether fn's doc comment carries any //zbp:layout
// directive — the hook bitrange uses to defer raw shift/mask policing
// to packlayout inside declared pack/unpack bodies.
func HasLayout(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if _, ok := ParseLayout(c); ok {
			return true
		}
	}
	return false
}
