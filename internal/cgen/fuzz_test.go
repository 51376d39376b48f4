package cgen

import (
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

// The parser must never panic, whatever bytes it is fed: errors are
// reported through the error list. These tests hammer it with random
// garbage, random token soups, and mutations of valid programs.

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	property := func(data []byte) bool {
		// Parse must return normally (possibly with errors).
		Parse("fuzz.c", string(data))
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	pieces := []string{
		"int", "char", "struct", "union", "typedef", "if", "else", "while",
		"for", "return", "sizeof", "x", "y", "f", "42", `"s"`, "'c'",
		"{", "}", "(", ")", "[", "]", ";", ",", "*", "&", "=", "+", "-",
		"->", ".", "...", "==", "::", "#define", "\\",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		var src string
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			src += pieces[rng.Intn(len(pieces))] + " "
		}
		Parse("soup.c", src)
	}
}

// TestParseNeverPanicsOnMutations parses random edits of a valid program
// and requires every edit that parses without errors to print the same
// after one more round trip through Parse and Print.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	base := `
struct node { struct node *next; int *v; };
int *f(int *a, int n) {
	int *p = a;
	if (n) p = f(p, n - 1);
	return p;
}
int main(void) { int x; return *f(&x, 3); }
`
	clean := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 300; trial++ {
			b := []byte(base)
			// Apply a handful of random edits: deletions, swaps, injections.
			for k := 0; k < 1+rng.Intn(5); k++ {
				switch rng.Intn(3) {
				case 0: // delete a byte
					i := rng.Intn(len(b))
					b = append(b[:i], b[i+1:]...)
				case 1: // duplicate a byte
					i := rng.Intn(len(b))
					b = append(b[:i], append([]byte{b[i]}, b[i:]...)...)
				default: // random punctuation injection
					const punct = "(){}[];,*&=+-<>#\"'"
					i := rng.Intn(len(b))
					b[i] = punct[rng.Intn(len(punct))]
				}
			}
			f, errs := Parse("mut.c", string(b))
			if len(errs) != 0 {
				continue
			}
			clean++
			p1 := Print(f)
			f2, _ := Parse("mut.c", p1)
			if p2 := Print(f2); p2 != p1 {
				t.Errorf("seed %d trial %d: Print∘Parse is not a fixed point on\n%s\n--- first print ---\n%s\n--- second print ---\n%s", seed, trial, b, p1, p2)
			}
		}
	}
	if clean == 0 {
		t.Fatal("no mutation parsed cleanly; the fixed-point check checked nothing")
	}
}

func TestTokenizeNeverPanics(t *testing.T) {
	property := func(data []byte) bool {
		Tokenize(string(data))
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLexLongUnexpectedRun lexes 1 MiB of a byte that starts no token.
// Under a 32 MiB stack cap, a lexer that retried recursively once per byte
// would die of a fatal stack overflow, which recover cannot catch; the
// run must come back as one error and no tokens.
func TestLexLongUnexpectedRun(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	src := "int x;\n" + strings.Repeat("@", 1<<20) + "\nint y;"
	toks, errs := Tokenize(src)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "2:1: unexpected character '@' and 1048575 more") {
		t.Fatalf("errors = %v, want one error for the whole run at 2:1", errs)
	}
	if len(toks) != 6 {
		t.Fatalf("lexed %d tokens around the run, want 6", len(toks))
	}
	if f, errs := Parse("run.c", src); len(errs) != 1 || len(f.Decls) != 2 {
		t.Fatalf("Parse: %d errors and %d declarations, want 1 and 2", len(errs), len(f.Decls))
	}
}

// FuzzParse checks the mini-C front end on arbitrary bytes: Tokenize and
// Parse never panic, every token's text lies inside the source and starts
// after the previous token's ends, two parses of one input print the
// same, and on an input that parses without errors Print∘Parse is a fixed
// point: printing, re-parsing and printing again changes nothing. The
// committed corpus (testdata/fuzz/FuzzParse) holds the mutation base
// above, a token soup, a small generated program, a run of bytes above
// 0x7f, an unterminated comment and string, a nameless declarator, and the
// untagged-record shapes that once broke the fixed point or the parse: a
// struct with neither a tag nor a body, and untagged bodies used as a
// return type, under a typedef and as a variable's type.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		toks, _ := Tokenize(src)
		end := int32(0)
		for i, tok := range toks {
			if tok.Off < end || tok.Len < 0 || int(tok.Off)+int(tok.Len) > len(src) || (i > 0 && tok.Off <= toks[i-1].Off) {
				t.Fatalf("token %d (%s) spans [%d, %d): want inside [%d, %d] and after token %d", i, tok.Kind, tok.Off, tok.Off+tok.Len, end, len(src), i-1)
			}
			end = tok.Off + tok.Len
		}
		f1, errs := Parse("fuzz.c", src)
		f2, _ := Parse("fuzz.c", src)
		p1 := Print(f1)
		if p2 := Print(f2); p1 != p2 {
			t.Fatalf("two parses print differently:\n%s\n----\n%s", p1, p2)
		}
		if len(errs) != 0 {
			return
		}
		f3, errs := Parse("fuzz.c", p1)
		if len(errs) != 0 {
			t.Fatalf("the print of a clean parse does not parse: %v\n%s", errs, p1)
		}
		if p3 := Print(f3); p3 != p1 {
			t.Fatalf("Print∘Parse is not a fixed point:\n%s\n--- first print ---\n%s\n--- second print ---\n%s", src, p1, p3)
		}
	})
}
