package cgen

import (
	"fmt"
	"strings"
)

// This file renders ASTs back to compilable C. The printer is conservative
// with parentheses (every nested operator is parenthesised), which keeps
// it trivially correct. Parentheses leave no AST node and every record
// type carries a tag (the parser names untagged bodies), so re-parsing a
// cleanly parsed file's print and printing it again gives the same text:
// FuzzParse and TestParseNeverPanicsOnMutations check this.

// Print renders a translation unit.
func Print(f *File) string {
	var p printer
	for _, d := range f.Decls {
		p.decl(d, true)
	}
	return p.b.String()
}

// FormatDecl renders a declaration of name with type t in C declarator
// syntax (e.g. FormatDecl("f", ptr-to-func) → "int *(*f)(int *)").
func FormatDecl(name string, t *Type) string {
	var p printer
	return p.declString(name, t)
}

// PrintStmt renders a single statement (primarily for tests and
// diagnostics).
func PrintStmt(s Stmt) string {
	var p printer
	p.stmt(s)
	return p.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var p printer
	return p.expr(e)
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	for i := 0; i < p.indent; i++ {
		p.b.WriteByte('\t')
	}
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

// declString builds "base declarator" for (name, t), inside-out.
func (p *printer) declString(name string, t *Type) string {
	inner := name
	for {
		if t == nil {
			if inner == "" {
				return "int"
			}
			return "int " + inner
		}
		switch t.Kind {
		case TPointer:
			inner = "*" + inner
			t = t.Elem
		case TArray:
			if strings.HasPrefix(inner, "*") {
				inner = "(" + inner + ")"
			}
			size := ""
			if t.Size != nil {
				size = p.expr(t.Size)
			}
			inner = inner + "[" + size + "]"
			t = t.Elem
		case TFunc:
			if strings.HasPrefix(inner, "*") {
				inner = "(" + inner + ")"
			}
			var params []string
			for _, pt := range t.Params {
				params = append(params, p.declString("", pt))
			}
			if t.Variadic {
				if len(params) > 0 {
					params = append(params, "...")
				}
			} else if len(params) == 0 {
				params = append(params, "void")
			}
			inner = inner + "(" + strings.Join(params, ", ") + ")"
			t = t.Ret
		default:
			base := t.String()
			if inner == "" {
				return base
			}
			return base + " " + inner
		}
	}
}

func (p *printer) decl(d Decl, top bool) {
	switch dd := d.(type) {
	case *VarDecl:
		s := p.declString(dd.Name, dd.Type)
		if dd.Init != nil {
			s += " = " + p.expr(dd.Init)
		}
		p.line("%s;", s)
	case *FuncDecl:
		// Reconstruct the heading from the parameter declarations so
		// parameter names survive.
		var params []string
		for _, pd := range dd.Params {
			params = append(params, p.declString(pd.Name, pd.Type))
		}
		if dd.Type.Variadic {
			if len(params) > 0 {
				params = append(params, "...")
			}
		} else if len(params) == 0 {
			params = append(params, "void")
		}
		head := p.declString(dd.Name+"("+strings.Join(params, ", ")+")", wrapRet(dd.Type))
		if dd.Body == nil {
			p.line("%s;", head)
			return
		}
		p.line("%s {", head)
		p.indent++
		for _, s := range dd.Body.Stmts {
			p.stmt(s)
		}
		p.indent--
		p.line("}")
	case *RecordDecl:
		kw := "struct"
		if dd.Union {
			kw = "union"
		}
		p.line("%s %s {", kw, dd.Tag)
		p.indent++
		for _, f := range dd.Fields {
			p.line("%s;", p.declString(f.Name, f.Type))
		}
		p.indent--
		p.line("};")
	case *TypedefDecl:
		p.line("typedef %s;", p.declString(dd.Name, dd.Type))
	case *EnumDecl:
		p.line("enum %s { %s };", dd.Tag, strings.Join(dd.Names, ", "))
	}
	_ = top
}

// wrapRet strips the function layer so declString renders only the return
// type around an already-built "name(params)" core.
func wrapRet(t *Type) *Type {
	if t != nil && t.Kind == TFunc {
		return t.Ret
	}
	return t
}

func (p *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case nil:
		p.line(";")
	case *Block:
		p.line("{")
		p.indent++
		for _, inner := range st.Stmts {
			p.stmt(inner)
		}
		p.indent--
		p.line("}")
	case *DeclStmt:
		for _, d := range st.Decls {
			p.decl(d, false)
		}
	case *ExprStmt:
		p.line("%s;", p.expr(st.X))
	case *If:
		p.line("if (%s)", p.expr(st.Cond))
		p.nested(st.Then)
		if st.Else != nil {
			p.line("else")
			p.nested(st.Else)
		}
	case *While:
		p.line("while (%s)", p.expr(st.Cond))
		p.nested(st.Body)
	case *DoWhile:
		p.line("do")
		p.nested(st.Body)
		p.line("while (%s);", p.expr(st.Cond))
	case *For:
		init, cond, post := "", "", ""
		switch i := st.Init.(type) {
		case nil:
		case *ExprStmt:
			init = p.expr(i.X)
		case *DeclStmt:
			// C99-style for-init declaration; print the first declarator
			// inline (the generator only emits simple ones).
			var sub printer
			sub.decl(i.Decls[0], false)
			init = strings.TrimSuffix(strings.TrimSpace(sub.b.String()), ";")
		}
		if st.Cond != nil {
			cond = p.expr(st.Cond)
		}
		if st.Post != nil {
			post = p.expr(st.Post)
		}
		p.line("for (%s; %s; %s)", init, cond, post)
		p.nested(st.Body)
	case *Return:
		if st.X != nil {
			p.line("return %s;", p.expr(st.X))
		} else {
			p.line("return;")
		}
	case *Switch:
		p.line("switch (%s)", p.expr(st.Tag))
		p.nested(st.Body)
	case *Case:
		if st.X != nil {
			p.line("case %s:", p.expr(st.X))
		} else {
			p.line("default:")
		}
		p.nested(st.Body)
	case *Label:
		p.line("%s:", st.Name)
		p.nested(st.Body)
	case *Goto:
		p.line("goto %s;", st.Name)
	case *Break:
		p.line("break;")
	case *Continue:
		p.line("continue;")
	case *Empty:
		p.line(";")
	}
}

// nested prints a statement indented one level (blocks handle their own
// braces).
func (p *printer) nested(s Stmt) {
	if _, isBlock := s.(*Block); isBlock {
		p.stmt(s)
		return
	}
	p.indent++
	p.stmt(s)
	p.indent--
}

var opText = map[Kind]string{
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Not: "!",
	Shl: "<<", Shr: ">>", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	EqEq: "==", NotEq: "!=", AndAnd: "&&", OrOr: "||",
	Inc: "++", Dec: "--",
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=",
	DivAssign: "/=", ModAssign: "%=", AndAssign: "&=", OrAssign: "|=",
	XorAssign: "^=", ShlAssign: "<<=", ShrAssign: ">>=",
}

func (p *printer) expr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *IdentExpr:
		return x.Name
	case *IntExpr:
		return x.Text
	case *FloatExpr:
		return x.Text
	case *StrExpr:
		return `"` + x.Text + `"`
	case *UnaryExpr:
		return opText[x.Op] + "(" + p.expr(x.X) + ")"
	case *PostfixExpr:
		return "(" + p.expr(x.X) + ")" + opText[x.Op]
	case *BinaryExpr:
		return "(" + p.expr(x.L) + " " + opText[x.Op] + " " + p.expr(x.R) + ")"
	case *AssignExpr:
		return p.expr(x.L) + " " + opText[x.Op] + " " + p.expr(x.R)
	case *CondExpr:
		return "(" + p.expr(x.Cond) + " ? " + p.expr(x.Then) + " : " + p.expr(x.Else) + ")"
	case *CommaExpr:
		return "(" + p.expr(x.L) + ", " + p.expr(x.R) + ")"
	case *CallExpr:
		var args []string
		for _, a := range x.Args {
			args = append(args, p.expr(a))
		}
		return p.callee(x.Fun) + "(" + strings.Join(args, ", ") + ")"
	case *IndexExpr:
		return p.callee(x.X) + "[" + p.expr(x.Idx) + "]"
	case *MemberExpr:
		sel := "."
		if x.Arrow {
			sel = "->"
		}
		return p.callee(x.X) + sel + x.Name
	case *CastExpr:
		return "(" + p.declString("", x.Type) + ")(" + p.expr(x.X) + ")"
	case *SizeofExpr:
		if x.X != nil {
			return "sizeof(" + p.expr(x.X) + ")"
		}
		return "sizeof(" + p.declString("", x.Type) + ")"
	case *InitList:
		var elems []string
		for _, el := range x.Elems {
			elems = append(elems, p.expr(el))
		}
		return "{ " + strings.Join(elems, ", ") + " }"
	}
	return "/*?*/"
}

// callee renders a postfix-position subexpression, parenthesising anything
// that is not already postfix-tight.
func (p *printer) callee(e Expr) string {
	switch e.(type) {
	case *IdentExpr, *CallExpr, *IndexExpr, *MemberExpr, *StrExpr:
		return p.expr(e)
	}
	return "(" + p.expr(e) + ")"
}
