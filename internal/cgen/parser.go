package cgen

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for the C subset. It tracks typedef
// names (the classic lexer-feedback problem is solved in the parser, which
// consults its typedef table when deciding whether an identifier starts a
// type) and recovers from errors at declaration/statement granularity.
type Parser struct {
	src      string // the source the tokens' text is read from
	toks     []Token
	pos      int
	typedefs map[string]*Type
	enums    map[string]bool
	errs     []error
	file     *File
	idents   map[string]bool // identifier spellings in src, built for the first anonTag
	anon     int             // synthetic record tags handed out
}

// bailout is the panic payload used for parse-error recovery.
type bailout struct{}

// Parse parses a translation unit. It returns the AST and the combined
// lexer/parser errors; the AST covers whatever could be parsed.
func Parse(name, src string) (*File, []error) {
	toks, lexErrs := Tokenize(src)
	p := &Parser{
		src:      src,
		toks:     toks,
		typedefs: map[string]*Type{},
		enums:    map[string]bool{},
		errs:     lexErrs,
		file:     &File{Name: name},
	}
	for !p.at(EOF) {
		start := p.pos
		p.recoverDecl(func() {
			p.parseExternalDecl()
		})
		if p.pos == start {
			// no progress: skip the offending token
			p.errorf("unexpected %s %q", p.cur().Kind, p.text())
			p.pos++
		}
	}
	return p.file, p.errs
}

// MustParse parses src and fails with a single combined error if anything
// went wrong. Convenient for tests and generated programs, which must
// always be valid.
func MustParse(name, src string) (*File, error) {
	f, errs := Parse(name, src)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return f, errors.New(name + ": " + strings.Join(msgs, "; "))
	}
	return f, nil
}

func (p *Parser) cur() Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return Token{Kind: EOF}
}

func (p *Parser) peekAt(n int) Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return Token{Kind: EOF}
}

// text returns the current token's spelling.
func (p *Parser) text() string { return p.cur().Text(p.src) }

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) Token {
	t := p.cur()
	if t.Kind != k {
		p.bail("expected %s, found %s %q", k, t.Kind, t.Text(p.src))
	}
	p.pos++
	return t
}

func (p *Parser) errorf(format string, args ...any) {
	t := p.cur()
	p.errs = append(p.errs, fmt.Errorf("%s: %s", t.Pos(), fmt.Sprintf(format, args...)))
}

func (p *Parser) bail(format string, args ...any) {
	p.errorf(format, args...)
	panic(bailout{})
}

// recoverDecl runs f; on a parse bailout it skips to the next ';' or
// top-level '}' so parsing can continue.
func (p *Parser) recoverDecl(f func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			depth := 0
			for !p.at(EOF) {
				switch p.cur().Kind {
				case LBrace:
					depth++
				case RBrace:
					depth--
					if depth <= 0 {
						p.pos++
						return
					}
				case Semi:
					if depth == 0 {
						p.pos++
						return
					}
				}
				p.pos++
			}
		}
	}()
	f()
}

// --- declarations --------------------------------------------------------

// startsType reports whether the current token can begin declaration
// specifiers.
func (p *Parser) startsType() bool {
	switch p.cur().Kind {
	case KwInt, KwChar, KwShort, KwLong, KwFloat, KwDouble, KwVoid,
		KwUnsigned, KwSigned, KwStruct, KwUnion, KwEnum, KwTypedef,
		KwStatic, KwExtern, KwConst, KwVolatile, KwRegister, KwAuto:
		return true
	case Ident:
		_, ok := p.typedefs[p.text()]
		return ok
	}
	return false
}

// parseDeclSpecs consumes declaration specifiers and returns the base type
// and whether 'typedef' appeared.
func (p *Parser) parseDeclSpecs() (base *Type, isTypedef bool) {
	var baseWords []string
	for {
		t := p.cur()
		switch t.Kind {
		case KwTypedef:
			isTypedef = true
			p.pos++
		case KwStatic, KwExtern, KwConst, KwVolatile, KwRegister, KwAuto:
			p.pos++ // storage classes and qualifiers don't affect the analysis
		case KwInt, KwChar, KwShort, KwLong, KwFloat, KwDouble, KwUnsigned, KwSigned:
			baseWords = append(baseWords, t.Text(p.src))
			p.pos++
		case KwVoid:
			base = VoidType
			p.pos++
		case KwStruct, KwUnion:
			base = p.parseRecordSpec(t.Kind == KwUnion)
		case KwEnum:
			base = p.parseEnumSpec()
		case Ident:
			if td, ok := p.typedefs[t.Text(p.src)]; ok && base == nil && len(baseWords) == 0 {
				base = td
				p.pos++
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	if base == nil {
		tag := "int"
		if len(baseWords) > 0 {
			tag = strings.Join(baseWords, " ")
		}
		base = &Type{Kind: TBase, Tag: tag}
	}
	return base, isTypedef
}

// parseRecordSpec parses struct/union specifiers, emitting a RecordDecl
// for definitions. A specifier needs a tag or a body, as in C. An untagged
// body gets a synthetic tag (see anonTag), so the printer can name its
// type wherever it is used and a re-parse of the print reads the same
// types.
func (p *Parser) parseRecordSpec(union bool) *Type {
	kw := p.cur().Text(p.src)
	p.pos++ // struct/union
	var tag string
	switch {
	case p.at(Ident):
		tag = p.text()
		p.pos++
	case p.at(LBrace):
		tag = p.anonTag()
	default:
		p.bail("%s with neither a tag nor a body", kw)
	}
	typ := &Type{Kind: TStruct, Union: union, Tag: tag}
	if !p.at(LBrace) {
		return typ
	}
	p.expect(LBrace)
	rec := &RecordDecl{Tag: tag, Union: union}
	for !p.at(RBrace) && !p.at(EOF) {
		base, _ := p.parseDeclSpecs()
		if p.accept(Semi) {
			continue // anonymous struct/union member
		}
		for {
			name, ftyp, _ := p.parseDeclarator(base)
			if p.accept(Colon) { // bit-field width
				p.parseCondExpr()
			}
			if name != "" { // a nameless declarator declares nothing, like a `T;` member
				rec.Fields = append(rec.Fields, &VarDecl{Name: name, Type: ftyp})
			}
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(Semi)
	}
	p.expect(RBrace)
	p.file.Decls = append(p.file.Decls, rec)
	return typ
}

// anonTag returns the tag for the next untagged record body: __anonN for
// the least N not yet handed out whose spelling is no identifier in the
// source, so a synthetic tag never names a second record.
func (p *Parser) anonTag() string {
	if p.idents == nil {
		p.idents = map[string]bool{}
		for _, t := range p.toks {
			if t.Kind == Ident {
				p.idents[t.Text(p.src)] = true
			}
		}
	}
	for {
		p.anon++
		if tag := "__anon" + strconv.Itoa(p.anon); !p.idents[tag] {
			return tag
		}
	}
}

// parseEnumSpec parses enum specifiers; enumerators become integer
// constants.
func (p *Parser) parseEnumSpec() *Type {
	p.pos++ // enum
	tag := ""
	if p.at(Ident) {
		tag = p.text()
		p.pos++
	}
	if p.at(LBrace) {
		p.expect(LBrace)
		decl := &EnumDecl{Tag: tag}
		for !p.at(RBrace) && !p.at(EOF) {
			name := p.expect(Ident).Text(p.src)
			decl.Names = append(decl.Names, name)
			p.enums[name] = true
			if p.accept(Assign) {
				p.parseCondExpr()
			}
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(RBrace)
		p.file.Decls = append(p.file.Decls, decl)
	}
	return &Type{Kind: TBase, Tag: "enum " + tag}
}

// parseExternalDecl parses one top-level declaration or function
// definition.
func (p *Parser) parseExternalDecl() {
	if p.accept(Semi) {
		return
	}
	base, isTypedef := p.parseDeclSpecs()
	if p.accept(Semi) {
		return // bare struct/union/enum declaration
	}
	name, typ, params := p.parseDeclarator(base)
	if typ != nil && typ.Kind == TFunc && p.at(LBrace) {
		fd := &FuncDecl{Name: name, Type: typ, Params: params, Line: int(p.cur().Line)}
		fd.Body = p.parseBlock()
		p.file.Decls = append(p.file.Decls, fd)
		return
	}
	p.finishDeclarators(base, isTypedef, name, typ, params, func(d Decl) {
		p.file.Decls = append(p.file.Decls, d)
	})
}

// finishDeclarators completes an init-declarator list whose first
// declarator has already been parsed, emitting declarations via sink.
func (p *Parser) finishDeclarators(base *Type, isTypedef bool, name string, typ *Type, params []*VarDecl, sink func(Decl)) {
	for {
		if name == "" {
			// A nameless declarator declares nothing, as a bare `int;` does.
			if p.at(Assign) {
				p.bail("initializer for a declarator with no name")
			}
		} else if isTypedef {
			p.typedefs[name] = typ
			sink(&TypedefDecl{Name: name, Type: typ})
		} else if typ != nil && typ.Kind == TFunc {
			sink(&FuncDecl{Name: name, Type: typ, Params: params, Line: int(p.cur().Line)}) // prototype
		} else {
			vd := &VarDecl{Name: name, Type: typ, Line: int(p.cur().Line)}
			if p.accept(Assign) {
				vd.Init = p.parseInitializer()
			}
			sink(vd)
		}
		if !p.accept(Comma) {
			break
		}
		name, typ, params = p.parseDeclarator(base)
	}
	p.expect(Semi)
}

// typeOp is a pending declarator suffix.
type typeOp struct {
	array    bool
	size     Expr // array size, nil when omitted
	params   []*VarDecl
	variadic bool
}

// parseDeclarator parses a (possibly abstract) declarator against the base
// type and returns the declared name (empty for abstract declarators), the
// complete type, and — when the result is a function type — the parameter
// declarations of the suffix that produced it.
func (p *Parser) parseDeclarator(base *Type) (string, *Type, []*VarDecl) {
	ptrs := 0
	for p.at(Star) {
		p.pos++
		ptrs++
		for p.at(KwConst) || p.at(KwVolatile) {
			p.pos++
		}
	}

	name := ""
	var innerStart, innerEnd int = -1, -1
	switch {
	case p.at(Ident):
		name = p.text()
		p.pos++
	case p.at(LParen) && p.startsDeclaratorAfterLParen():
		// Parenthesised declarator: remember the token span and re-parse
		// it once the outer type is known (inside-out type construction).
		p.pos++
		innerStart = p.pos
		depth := 1
		for depth > 0 && !p.at(EOF) {
			if p.at(LParen) {
				depth++
			} else if p.at(RParen) {
				depth--
				if depth == 0 {
					break
				}
			}
			p.pos++
		}
		innerEnd = p.pos
		p.expect(RParen)
	}

	// Suffixes: arrays and parameter lists.
	var suffixes []typeOp
	for {
		if p.accept(LBracket) {
			var size Expr
			if !p.at(RBracket) {
				size = p.parseExpr() // value irrelevant to the analysis; kept for printing
			}
			p.expect(RBracket)
			suffixes = append(suffixes, typeOp{array: true, size: size})
			continue
		}
		if p.at(LParen) {
			p.pos++
			params, variadic := p.parseParamList()
			p.expect(RParen)
			suffixes = append(suffixes, typeOp{params: params, variadic: variadic})
			continue
		}
		break
	}

	// Build the type inside-out: pointers bind tighter than the suffixes
	// of an enclosing declarator but looser than our own suffixes.
	t := base
	for i := 0; i < ptrs; i++ {
		t = Ptr(t)
	}
	var fparams []*VarDecl
	for i := len(suffixes) - 1; i >= 0; i-- {
		op := suffixes[i]
		if op.array {
			t = &Type{Kind: TArray, Elem: t, Size: op.size}
		} else {
			ptypes := make([]*Type, len(op.params))
			for j, pd := range op.params {
				ptypes[j] = pd.Type
			}
			t = &Type{Kind: TFunc, Ret: t, Params: ptypes, Variadic: op.variadic}
			if i == 0 {
				fparams = op.params
			}
		}
	}

	if innerStart >= 0 {
		// Re-parse the parenthesised declarator with t as its base.
		savedPos := p.pos
		savedToks := p.toks
		p.toks = p.toks[:innerEnd]
		p.pos = innerStart
		iname, ityp, iparams := p.parseDeclarator(t)
		p.toks = savedToks
		p.pos = savedPos
		if iparams == nil && ityp != nil && ityp.Kind == TFunc {
			iparams = fparams
		}
		return iname, ityp, iparams
	}
	return name, t, fparams
}

// startsDeclaratorAfterLParen disambiguates '(' declarator ')' from a
// parameter-list suffix in abstract declarators.
func (p *Parser) startsDeclaratorAfterLParen() bool {
	n := p.peekAt(1)
	switch n.Kind {
	case Star, LParen, LBracket:
		return true
	case Ident:
		_, isType := p.typedefs[n.Text(p.src)]
		return !isType
	}
	return false
}

// parseParamList parses function parameters (possibly empty or "void").
func (p *Parser) parseParamList() (params []*VarDecl, variadic bool) {
	if p.at(RParen) {
		return nil, true // old-style unspecified parameters: be lenient
	}
	if p.at(KwVoid) && p.peekAt(1).Kind == RParen {
		p.pos++
		return nil, false
	}
	for {
		if p.accept(Ellipsis) {
			variadic = true
			break
		}
		if !p.startsType() {
			// K&R identifier list: accept bare names as int parameters.
			if p.at(Ident) {
				params = append(params, &VarDecl{Name: p.text(), Type: IntType})
				p.pos++
			} else {
				p.bail("expected parameter declaration, found %s", p.cur().Kind)
			}
		} else {
			base, _ := p.parseDeclSpecs()
			name, typ, _ := p.parseDeclarator(base)
			// Arrays and functions decay to pointers in parameter position.
			switch typ.Kind {
			case TArray:
				typ = Ptr(typ.Elem)
			case TFunc:
				typ = Ptr(typ)
			}
			params = append(params, &VarDecl{Name: name, Type: typ})
		}
		if !p.accept(Comma) {
			break
		}
	}
	return params, variadic
}

// parseTypeName parses a type-name (as in casts and sizeof).
func (p *Parser) parseTypeName() *Type {
	base, _ := p.parseDeclSpecs()
	_, typ, _ := p.parseDeclarator(base)
	return typ
}

// parseInitializer parses an initializer: an assignment expression or a
// brace list (with optional designators, which the field-insensitive
// analysis ignores).
func (p *Parser) parseInitializer() Expr {
	if !p.at(LBrace) {
		return p.parseAssignExpr()
	}
	p.expect(LBrace)
	lst := &InitList{}
	for !p.at(RBrace) && !p.at(EOF) {
		// Skip designators: .name = / [expr] =
		for {
			if p.at(Dot) && p.peekAt(1).Kind == Ident {
				p.pos += 2
				p.accept(Assign)
				continue
			}
			if p.at(LBracket) {
				p.pos++
				p.parseCondExpr()
				p.expect(RBracket)
				p.accept(Assign)
				continue
			}
			break
		}
		lst.Elems = append(lst.Elems, p.parseInitializer())
		if !p.accept(Comma) {
			break
		}
	}
	p.expect(RBrace)
	return lst
}

// --- statements ----------------------------------------------------------

func (p *Parser) parseBlock() *Block {
	p.expect(LBrace)
	b := &Block{}
	for !p.at(RBrace) && !p.at(EOF) {
		start := p.pos
		p.recoverDecl(func() {
			b.Stmts = append(b.Stmts, p.parseStmt())
		})
		if p.pos == start {
			p.errorf("unexpected %s in block", p.cur().Kind)
			p.pos++
		}
	}
	p.expect(RBrace)
	return b
}

// parseLocalDecls parses a block-level declaration into a DeclStmt.
func (p *Parser) parseLocalDecls() Stmt {
	ds := &DeclStmt{}
	base, isTypedef := p.parseDeclSpecs()
	if p.accept(Semi) {
		return ds // bare struct/enum declaration in a block
	}
	name, typ, params := p.parseDeclarator(base)
	p.finishDeclarators(base, isTypedef, name, typ, params, func(d Decl) {
		ds.Decls = append(ds.Decls, d)
	})
	return ds
}

func (p *Parser) parseStmt() Stmt {
	switch p.cur().Kind {
	case Semi:
		p.pos++
		return &Empty{}
	case LBrace:
		return p.parseBlock()
	case KwIf:
		p.pos++
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		then := p.parseStmt()
		var els Stmt
		if p.accept(KwElse) {
			els = p.parseStmt()
		}
		return &If{Cond: cond, Then: then, Else: els}
	case KwWhile:
		p.pos++
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		return &While{Cond: cond, Body: p.parseStmt()}
	case KwDo:
		p.pos++
		body := p.parseStmt()
		p.expect(KwWhile)
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		p.expect(Semi)
		return &DoWhile{Body: body, Cond: cond}
	case KwFor:
		p.pos++
		p.expect(LParen)
		f := &For{}
		if !p.at(Semi) {
			if p.startsType() {
				f.Init = p.parseLocalDecls() // consumes the ';'
			} else {
				f.Init = &ExprStmt{X: p.parseExpr()}
				p.expect(Semi)
			}
		} else {
			p.expect(Semi)
		}
		if !p.at(Semi) {
			f.Cond = p.parseExpr()
		}
		p.expect(Semi)
		if !p.at(RParen) {
			f.Post = p.parseExpr()
		}
		p.expect(RParen)
		f.Body = p.parseStmt()
		return f
	case KwReturn:
		p.pos++
		r := &Return{}
		if !p.at(Semi) {
			r.X = p.parseExpr()
		}
		p.expect(Semi)
		return r
	case KwBreak:
		p.pos++
		p.expect(Semi)
		return &Break{}
	case KwContinue:
		p.pos++
		p.expect(Semi)
		return &Continue{}
	case KwGoto:
		p.pos++
		name := p.expect(Ident).Text(p.src)
		p.expect(Semi)
		return &Goto{Name: name}
	case KwSwitch:
		p.pos++
		p.expect(LParen)
		tag := p.parseExpr()
		p.expect(RParen)
		var body *Block
		if p.at(LBrace) {
			body = p.parseBlock()
		} else {
			body = &Block{Stmts: []Stmt{p.parseStmt()}}
		}
		return &Switch{Tag: tag, Body: body}
	case KwCase:
		p.pos++
		x := p.parseCondExpr()
		p.expect(Colon)
		return &Case{X: x, Body: p.parseStmt()}
	case KwDefault:
		p.pos++
		p.expect(Colon)
		return &Case{Body: p.parseStmt()}
	case Ident:
		if p.peekAt(1).Kind == Colon {
			name := p.text()
			p.pos += 2
			return &Label{Name: name, Body: p.parseStmt()}
		}
	}
	if p.startsType() {
		return p.parseLocalDecls()
	}
	x := p.parseExpr()
	p.expect(Semi)
	return &ExprStmt{X: x}
}

// --- expressions ---------------------------------------------------------

func (p *Parser) parseExpr() Expr {
	x := p.parseAssignExpr()
	for p.accept(Comma) {
		x = &CommaExpr{L: x, R: p.parseAssignExpr()}
	}
	return x
}

func isAssignOp(k Kind) bool {
	switch k {
	case Assign, AddAssign, SubAssign, MulAssign, DivAssign, ModAssign,
		AndAssign, OrAssign, XorAssign, ShlAssign, ShrAssign:
		return true
	}
	return false
}

func (p *Parser) parseAssignExpr() Expr {
	x := p.parseCondExpr()
	if isAssignOp(p.cur().Kind) {
		op := p.cur().Kind
		p.pos++
		return &AssignExpr{Op: op, L: x, R: p.parseAssignExpr()}
	}
	return x
}

func (p *Parser) parseCondExpr() Expr {
	x := p.parseBinaryExpr(0)
	if p.accept(Question) {
		then := p.parseExpr()
		p.expect(Colon)
		return &CondExpr{Cond: x, Then: then, Else: p.parseAssignExpr()}
	}
	return x
}

// binary operator precedence, lowest first
var binPrec = map[Kind]int{
	OrOr: 1, AndAnd: 2, Pipe: 3, Caret: 4, Amp: 5,
	EqEq: 6, NotEq: 6,
	Lt: 7, Gt: 7, Le: 7, Ge: 7,
	Shl: 8, Shr: 8,
	Plus: 9, Minus: 9,
	Star: 10, Slash: 10, Percent: 10,
}

func (p *Parser) parseBinaryExpr(minPrec int) Expr {
	x := p.parseCastExpr()
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return x
		}
		op := p.cur().Kind
		p.pos++
		y := p.parseBinaryExpr(prec + 1)
		x = &BinaryExpr{Op: op, L: x, R: y}
	}
}

// startsTypeNameAfterLParen reports whether '(' begins a cast or a
// parenthesised expression.
func (p *Parser) startsTypeNameAfterLParen() bool {
	n := p.peekAt(1)
	switch n.Kind {
	case KwInt, KwChar, KwShort, KwLong, KwFloat, KwDouble, KwVoid,
		KwUnsigned, KwSigned, KwStruct, KwUnion, KwEnum, KwConst, KwVolatile:
		return true
	case Ident:
		_, ok := p.typedefs[n.Text(p.src)]
		return ok
	}
	return false
}

func (p *Parser) parseCastExpr() Expr {
	if p.at(LParen) && p.startsTypeNameAfterLParen() {
		p.pos++
		typ := p.parseTypeName()
		p.expect(RParen)
		return &CastExpr{Type: typ, X: p.parseCastExpr()}
	}
	return p.parseUnaryExpr()
}

func (p *Parser) parseUnaryExpr() Expr {
	switch p.cur().Kind {
	case Amp, Star, Plus, Minus, Not, Tilde:
		op := p.cur().Kind
		p.pos++
		return &UnaryExpr{Op: op, X: p.parseCastExpr()}
	case Inc, Dec:
		op := p.cur().Kind
		p.pos++
		return &UnaryExpr{Op: op, X: p.parseUnaryExpr()}
	case KwSizeof:
		p.pos++
		if p.at(LParen) && p.startsTypeNameAfterLParen() {
			p.pos++
			typ := p.parseTypeName()
			p.expect(RParen)
			return &SizeofExpr{Type: typ}
		}
		return &SizeofExpr{X: p.parseUnaryExpr()}
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() Expr {
	x := p.parsePrimaryExpr()
	for {
		switch p.cur().Kind {
		case LBracket:
			p.pos++
			idx := p.parseExpr()
			p.expect(RBracket)
			x = &IndexExpr{X: x, Idx: idx}
		case LParen:
			tok := p.cur()
			p.pos++
			call := &CallExpr{Fun: x, Line: int(tok.Line), Col: int(tok.Col)}
			for !p.at(RParen) && !p.at(EOF) {
				call.Args = append(call.Args, p.parseAssignExpr())
				if !p.accept(Comma) {
					break
				}
			}
			p.expect(RParen)
			x = call
		case Dot:
			p.pos++
			x = &MemberExpr{X: x, Name: p.expect(Ident).Text(p.src)}
		case Arrow:
			p.pos++
			x = &MemberExpr{X: x, Name: p.expect(Ident).Text(p.src), Arrow: true}
		case Inc, Dec:
			x = &PostfixExpr{Op: p.cur().Kind, X: x}
			p.pos++
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimaryExpr() Expr {
	t := p.cur()
	text := t.Text(p.src)
	switch t.Kind {
	case Ident:
		p.pos++
		return &IdentExpr{Name: text, Line: int(t.Line)}
	case IntLit:
		p.pos++
		return &IntExpr{Text: text}
	case CharLit:
		p.pos++
		return &IntExpr{Text: "'" + text + "'"}
	case FloatLit:
		p.pos++
		return &FloatExpr{Text: text}
	case StrLit:
		p.pos++
		// Adjacent string literals concatenate.
		for p.at(StrLit) {
			text += p.text()
			p.pos++
		}
		return &StrExpr{Text: text, Line: int(t.Line), Col: int(t.Col)}
	case LParen:
		p.pos++
		x := p.parseExpr()
		p.expect(RParen)
		return x
	}
	p.bail("expected expression, found %s %q", t.Kind, text)
	return nil
}
