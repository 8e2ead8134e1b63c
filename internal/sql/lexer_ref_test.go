package sql

import (
	"bufio"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lex is the eager lexer the parser used before it streamed: it tokenizes
// the whole input into a slice, failing with the first lexical error, and
// unescapes string literals byte by byte. It is kept as the reference the
// streaming window is checked against.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		if tok.kind == tokString {
			tok.text = unescapeAt(src, tok.pos)
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
	}
}

// unescapeAt reads the string literal that opens at src[start].
func unescapeAt(src string, start int) string {
	var b strings.Builder
	for i := start + 1; i < len(src); i++ {
		if src[i] == '\'' {
			if i+1 < len(src) && src[i+1] == '\'' {
				b.WriteByte('\'')
				i++
				continue
			}
			break
		}
		b.WriteByte(src[i])
	}
	return b.String()
}

// streamTokens reads src through the parser's lookahead window, as the
// parser does, until EOF, peeking one token ahead before every step.
func streamTokens(src string) ([]token, error) {
	p := parser{lx: lexer{src: src}}
	var toks []token
	for {
		ahead := p.peekAt(1)
		t := p.advance()
		toks = append(toks, t)
		if t.kind == tokEOF {
			break
		}
		if next := p.peek(); next != ahead {
			return nil, &tokenMismatch{want: ahead, got: next}
		}
	}
	return toks, p.err
}

type tokenMismatch struct{ want, got token }

func (m *tokenMismatch) Error() string {
	return "peekAt(1) read " + strconv.Quote(m.want.text) + ", the next token is " + strconv.Quote(m.got.text)
}

// differentialInputs collects the statements the streaming lexer is held
// to: every checked-in FuzzParse and FuzzParameterize corpus entry and
// every string literal of parser_test.go.
func differentialInputs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, dir := range []string{"FuzzParse", "FuzzParameterize"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			out = append(out, corpusStrings(t, f)...)
		}
	}
	fset := gotoken.NewFileSet()
	file, err := goparser.ParseFile(fset, "parser_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// corpusStrings reads the string(...) values of one go-fuzz corpus file.
func corpusStrings(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
			continue
		}
		s, err := strconv.Unquote(line[len("string(") : len(line)-1])
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamingLexerMatchesEager: over the fuzz corpora and the parser
// tests' statements, the window yields the eager lexer's tokens and its
// error text, and Parse and ParseAll fail with the eager lexer's error
// wherever the input has one, however early the parser stops.
func TestStreamingLexerMatchesEager(t *testing.T) {
	inputs := differentialInputs(t)
	if len(inputs) < 100 {
		t.Fatalf("only %d inputs: the corpora were not found", len(inputs))
	}
	lexErrors := 0
	for _, src := range inputs {
		want, werr := lex(src)
		got, gerr := streamTokens(src)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Errorf("%q: streaming error %v, eager %v", src, gerr, werr)
			continue
		}
		if werr != nil {
			lexErrors++
			for name, parse := range map[string]func(string) error{
				"Parse":    func(s string) error { _, err := Parse(s); return err },
				"ParseAll": func(s string) error { _, err := ParseAll(s); return err },
			} {
				if err := parse(src); err == nil || err.Error() != werr.Error() {
					t.Errorf("%s(%q) = %v, want the lexer's %v", name, src, err, werr)
				}
			}
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%q: %d tokens streamed, %d lexed", src, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q token %d: streamed %+v, lexed %+v", src, i, got[i], want[i])
				break
			}
		}
	}
	if lexErrors == 0 {
		t.Error("no input has a lexical error; the error path is untested")
	}
}

// TestParseLexErrorAfterParseError: a lexical error behind the point
// where the parser fails is still the error reported.
func TestParseLexErrorAfterParseError(t *testing.T) {
	for _, src := range []string{
		"select from t where a = 'open",
		"select a from t t2 t3 @",
		"select 1; select 2 #",
	} {
		_, werr := lex(src)
		if werr == nil {
			t.Fatalf("%q lexes", src)
		}
		if _, err := Parse(src); err == nil || err.Error() != werr.Error() {
			t.Errorf("Parse(%q) = %v, want %v", src, err, werr)
		}
	}
}
