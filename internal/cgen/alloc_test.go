package cgen

import (
	"testing"
	"unsafe"

	"polce/internal/progen"
)

// raceEnabled is set under the race detector, whose instrumentation makes
// allocation counts meaningless.
var raceEnabled bool

// TestTokenizeAllocatesOnce pins the token buffer: Tokenize sizes one
// pointer-free buffer from the source length, and a generated program
// never outgrows it.
func TestTokenizeAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if size := unsafe.Sizeof(Token{}); size != 20 {
		t.Errorf("Token is %d bytes, want 20", size)
	}
	src := progen.Generate(progen.ByScale(116, 4000))
	var toks []Token
	// AllocsPerRun truncates the mean, so a hundred runs keep a stray
	// allocation by another goroutine from counting as Tokenize's.
	if got := testing.AllocsPerRun(100, func() { toks, _ = Tokenize(src) }); got != 1 {
		t.Errorf("Tokenize allocated %.1f times per call, want 1", got)
	}
	if len(toks) < len(src)/4 {
		t.Errorf("lexed %d tokens from %d bytes", len(toks), len(src))
	}
}
