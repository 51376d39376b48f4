package cgen

import (
	"strings"
	"testing"
)

func parseOK(t *testing.T, src string) *File {
	t.Helper()
	f, err := MustParse("test.c", src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	return f
}

func TestLexBasics(t *testing.T) {
	toks, errs := Tokenize(`int x = 42; /* c */ char *s = "hi\n"; // line
x += 0x1f; y <<= 2; z = a->b ... 'c' 3.5e-2`)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var kinds []Kind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{KwInt, Ident, Assign, IntLit, Semi, KwChar, Star, Ident,
		Assign, StrLit, Semi, Ident, AddAssign, IntLit, Semi, Ident,
		ShlAssign, IntLit, Semi, Ident, Assign, Ident, Arrow, Ident,
		Ellipsis, CharLit, FloatLit}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexPreprocessorSkipped(t *testing.T) {
	toks, errs := Tokenize("#include <stdio.h>\n#define X 1 \\\n  2\nint x;")
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	if len(toks) != 3 || toks[0].Kind != KwInt {
		t.Errorf("preprocessor lines leaked into tokens: %v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	toks, _ := Tokenize("int\n  x;")
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("x at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func declOf(t *testing.T, f *File, name string) *VarDecl {
	t.Helper()
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok && vd.Name == name {
			return vd
		}
	}
	t.Fatalf("no declaration of %s", name)
	return nil
}

func TestDeclaratorShapes(t *testing.T) {
	f := parseOK(t, `
int x;
int *p;
int **pp;
int a[10];
int *ap[10];
int (*pa)[10];
int (*fp)(int, char *);
int *(*fpp)(void);
char *argv[16];
unsigned long ul;
struct node { struct node *next; int v; } n1, *n2;
`)
	tests := []struct{ name, typ string }{
		{"x", "int"},
		{"p", "int*"},
		{"pp", "int**"},
		{"a", "int[]"},
		{"ap", "int*[]"},
		{"pa", "int[]*"},
		{"fp", "int(int,char*)*"},
		{"fpp", "int*()*"},
		{"argv", "char*[]"},
		{"ul", "unsigned long"},
		{"n1", "struct node"},
		{"n2", "struct node*"},
	}
	for _, tc := range tests {
		if got := declOf(t, f, tc.name).Type.String(); got != tc.typ {
			t.Errorf("%s: type %q, want %q", tc.name, got, tc.typ)
		}
	}
}

func TestFunctionDefinition(t *testing.T) {
	f := parseOK(t, `
int add(int a, int b) { return a + b; }
void nothing(void) {}
int proto(char *s);
`)
	var fns []*FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok {
			fns = append(fns, fd)
		}
	}
	if len(fns) != 3 {
		t.Fatalf("got %d functions, want 3", len(fns))
	}
	if fns[0].Name != "add" || len(fns[0].Params) != 2 || fns[0].Body == nil {
		t.Errorf("add parsed wrong: %+v", fns[0])
	}
	if fns[1].Body == nil || len(fns[1].Params) != 0 {
		t.Errorf("nothing parsed wrong")
	}
	if fns[2].Body != nil {
		t.Errorf("prototype has a body")
	}
}

func TestTypedef(t *testing.T) {
	f := parseOK(t, `
typedef int myint;
typedef struct pair { int a, b; } pair_t;
typedef int (*handler)(void *);
myint x;
pair_t *pt;
handler h;
int call(handler cb) { return cb((void*)0); }
`)
	if got := declOf(t, f, "x").Type.String(); got != "int" {
		t.Errorf("x: %q", got)
	}
	if got := declOf(t, f, "pt").Type.String(); got != "struct pair*" {
		t.Errorf("pt: %q", got)
	}
	if got := declOf(t, f, "h").Type.String(); got != "int(void*)*" {
		t.Errorf("h: %q", got)
	}
}

func TestStatements(t *testing.T) {
	f := parseOK(t, `
int main(int argc, char **argv) {
	int i, n = 10;
	for (i = 0; i < n; i++) {
		if (i % 2) continue; else n--;
	}
	while (n > 0) { n--; }
	do { n++; } while (n < 5);
	switch (n) {
	case 0: n = 1; break;
	case 1:
	default: n = 2;
	}
	goto out;
out:
	return n;
}
`)
	fd := f.Decls[0].(*FuncDecl)
	if fd.Body == nil || len(fd.Body.Stmts) < 6 {
		t.Fatalf("body has %d statements", len(fd.Body.Stmts))
	}
	kinds := map[string]bool{}
	Walk(fd, func(n any) {
		switch n.(type) {
		case *For:
			kinds["for"] = true
		case *While:
			kinds["while"] = true
		case *DoWhile:
			kinds["do"] = true
		case *Switch:
			kinds["switch"] = true
		case *Case:
			kinds["case"] = true
		case *Goto:
			kinds["goto"] = true
		case *Label:
			kinds["label"] = true
		case *If:
			kinds["if"] = true
		}
	})
	for _, k := range []string{"for", "while", "do", "switch", "case", "goto", "label", "if"} {
		if !kinds[k] {
			t.Errorf("statement kind %s not parsed", k)
		}
	}
}

func TestExpressions(t *testing.T) {
	f := parseOK(t, `
int g(int);
void test(void) {
	int x = 1, *p = &x, a[3];
	char *s = "lit" "eral";
	x = *p + a[1] * g(x) - (x ? 1 : 2);
	p = (int *)(void *)&a[0];
	x += sizeof(int *) + sizeof x;
	x = (x && *p) || !x;
	*p = x++ + ++x, x--;
	s = s;
}
`)
	count := 0
	Walk(f, func(n any) {
		if _, ok := n.(*AssignExpr); ok {
			count++
		}
	})
	if count < 6 {
		t.Errorf("found %d assignments, want at least 6", count)
	}
}

func TestPrecedence(t *testing.T) {
	f := parseOK(t, "int x = 1 + 2 * 3;")
	vd := declOf(t, f, "x")
	bin, ok := vd.Init.(*BinaryExpr)
	if !ok || bin.Op != Plus {
		t.Fatalf("top operator not +: %#v", vd.Init)
	}
	if r, ok := bin.R.(*BinaryExpr); !ok || r.Op != Star {
		t.Errorf("rhs not a multiplication: %#v", bin.R)
	}
}

func TestCastVsParen(t *testing.T) {
	f := parseOK(t, `
typedef int T;
int y;
int a = (T)y;
int b = (y) + 1;
`)
	if _, ok := declOf(t, f, "a").Init.(*CastExpr); !ok {
		t.Errorf("(T)y not parsed as cast")
	}
	if _, ok := declOf(t, f, "b").Init.(*BinaryExpr); !ok {
		t.Errorf("(y)+1 not parsed as addition")
	}
}

func TestInitializers(t *testing.T) {
	f := parseOK(t, `
int x;
int *tab[] = { &x, &x, 0 };
struct p { int a; int *q; };
struct p s = { 1, &x };
struct p s2 = { .a = 2, .q = &x };
int grid[2][2] = { {1, 2}, {3, 4} };
`)
	vd := declOf(t, f, "tab")
	lst, ok := vd.Init.(*InitList)
	if !ok || len(lst.Elems) != 3 {
		t.Fatalf("tab initializer: %#v", vd.Init)
	}
	if _, ok := declOf(t, f, "s2").Init.(*InitList); !ok {
		t.Errorf("designated initializer not parsed")
	}
}

func TestEnums(t *testing.T) {
	f := parseOK(t, `
enum color { RED, GREEN = 5, BLUE };
enum color c;
int x = RED;
`)
	found := false
	for _, d := range f.Decls {
		if ed, ok := d.(*EnumDecl); ok && len(ed.Names) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("enum declaration missing")
	}
}

func TestBitfieldsAndUnions(t *testing.T) {
	parseOK(t, `
struct flags { unsigned a : 1; unsigned b : 2; };
union u { int i; char *p; } uu;
`)
}

func TestFunctionPointerCall(t *testing.T) {
	f := parseOK(t, `
int f(int x) { return x; }
int main(void) {
	int (*fp)(int) = f;
	int (*fp2)(int) = &f;
	return (*fp)(1) + fp2(2);
}
`)
	calls := 0
	Walk(f, func(n any) {
		if _, ok := n.(*CallExpr); ok {
			calls++
		}
	})
	if calls != 2 {
		t.Errorf("found %d calls, want 2", calls)
	}
}

func TestVariadicAndKR(t *testing.T) {
	f := parseOK(t, `
int printf(const char *fmt, ...);
int oldstyle();
`)
	for _, d := range f.Decls {
		fd := d.(*FuncDecl)
		if !fd.Type.Variadic {
			t.Errorf("%s not marked variadic", fd.Name)
		}
	}
}

func TestArrayParamDecay(t *testing.T) {
	f := parseOK(t, `void fill(int buf[], int n) {}`)
	fd := f.Decls[0].(*FuncDecl)
	if got := fd.Params[0].Type.String(); got != "int*" {
		t.Errorf("array parameter type %q, want int*", got)
	}
}

func TestCountNodesAndLines(t *testing.T) {
	src := "int x;\nint y = x + 1;\n"
	f := parseOK(t, src)
	if n := CountNodes(f); n < 5 {
		t.Errorf("CountNodes = %d, want >= 5", n)
	}
	if n := CountLines(src); n != 2 {
		t.Errorf("CountLines = %d, want 2", n)
	}
}

func TestParseErrorsRecover(t *testing.T) {
	f, errs := Parse("bad.c", `
int x = ;
int good;
void f(void) { y = ; }
int also_good;
`)
	if len(errs) == 0 {
		t.Fatalf("no errors reported for invalid input")
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok {
			names[vd.Name] = true
		}
	}
	if !names["good"] || !names["also_good"] {
		t.Errorf("recovery lost later declarations: %v", names)
	}
}

func TestMustParseErrorMessage(t *testing.T) {
	_, err := MustParse("bad.c", "int x = ;")
	if err == nil || !strings.Contains(err.Error(), "bad.c") {
		t.Errorf("MustParse error = %v", err)
	}
}

func TestCommaInForAndCalls(t *testing.T) {
	parseOK(t, `
int f(int a, int b);
void g(void) {
	int i, j;
	for (i = 0, j = 9; i < j; i++, j--) f(i, j);
}
`)
}

func TestNestedStructAccess(t *testing.T) {
	parseOK(t, `
struct in { int *p; };
struct out { struct in i; struct in *ip; };
void h(struct out *o) {
	int x;
	o->i.p = &x;
	o->ip->p = o->i.p;
	(*o).i.p = &x;
}
`)
}

// TestRecordSpecNeedsTagOrBody pins the untagged-record rules: a struct or
// union needs a tag or a body, as in C, and an untagged body may declare
// anything a tagged one may. Such a body gets a synthetic tag that spells
// no identifier of the source, so its print names one type everywhere and
// re-parses to the same text.
func TestRecordSpecNeedsTagOrBody(t *testing.T) {
	for _, c := range []struct {
		src, err string // err is "" when the source must parse cleanly
	}{
		{"struct { int a; };", ""},
		{"struct s { struct { int a; }; int *p; };", ""},
		{"struct s; struct s *p;", ""},
		{"typedef struct { int a; } T; T *p;", ""},
		{"union { int a; } u;", ""},
		{"struct { int a; } x, *y;", ""},
		{"struct s { struct { int a; } m; };", ""},
		{"struct {} A() {}", ""},
		{"int f(void) { struct { int *p; } r; return sizeof(struct { int b; }); }", ""},
		{"struct int A() {}", "struct with neither a tag nor a body"},
		{"union *u;", "union with neither a tag nor a body"},
	} {
		f, errs := Parse("rec.c", c.src)
		switch {
		case c.err == "" && len(errs) != 0:
			t.Errorf("%q: %v, want a clean parse", c.src, errs)
		case c.err != "" && (len(errs) == 0 || !strings.Contains(errs[0].Error(), c.err)):
			t.Errorf("%q: errors %v, want one naming %q", c.src, errs, c.err)
		}
		if len(errs) != 0 {
			continue
		}
		p1 := Print(f)
		f2, errs := Parse("rec.c", p1)
		if p2 := Print(f2); len(errs) != 0 || p2 != p1 {
			t.Errorf("%q: the print re-parses with errors %v or prints differently:\n%s\n---\n%s", c.src, errs, p1, p2)
		}
	}

	f := parseOK(t, "int __anon1; typedef struct { int a; } T; T *p; union { T t; } u;")
	want := `int __anon1;
struct __anon2 {
	int a;
};
typedef struct __anon2 T;
struct __anon2 *p;
union __anon3 {
	struct __anon2 t;
};
union __anon3 u;
`
	if got := Print(f); got != want {
		t.Errorf("synthetic tags print as\n%s\nwant\n%s", got, want)
	}
}
