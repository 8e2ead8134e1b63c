package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString // single-quoted literal, quotes stripped, '' unescaped
	tokSymbol // operators and punctuation: ( ) , . = <> <= >= < > + - * / ;
	tokParam  // a placeholder $N; text holds the digits
)

// token is one lexical token. Keywords are lower-cased in Text; identifiers
// keep their lower-cased form too (the dialect is case-insensitive, like
// PostgreSQL's fold-to-lower behaviour).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// keywords recognized by the lexer. Everything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"group": true, "by": true, "having": true, "order": true, "asc": true,
	"desc": true, "limit": true, "as": true, "and": true, "or": true,
	"not": true, "between": true, "in": true, "like": true, "is": true,
	"null": true, "exists": true, "case": true, "when": true, "then": true,
	"else": true, "end": true, "insert": true, "into": true, "values": true,
	"delete": true, "update": true, "set": true, "create": true,
	"table": true, "index": true, "clustered": true, "on": true,
	"primary": true, "key": true, "date": true, "interval": true,
	"true": true, "false": true, "to": true, "explain": true,
}

// lexer tokenizes a SQL string on demand: the parser pulls one token at
// a time through its lookahead window, so no token slice is built.
type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	// Skip -- line comments.
	for l.pos+1 < len(l.src) && l.src[l.pos] == '-' && l.src[l.pos+1] == '-' {
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '$' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start}, nil
	case c == '\'':
		// The literal is copied out of the source, once: a string an
		// INSERT stores must not pin the whole statement's text.
		l.pos++
		escaped := false
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("unterminated string literal at offset %d", start)
			}
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					escaped = true
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			l.pos++
		}
		text := l.src[start+1 : l.pos-1]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		} else {
			text = strings.Clone(text)
		}
		return token{kind: tokString, text: text, pos: start}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		word := strings.ToLower(l.src[start:l.pos])
		kind := tokIdent
		if keywords[word] {
			kind = tokKeyword
		}
		return token{kind: kind, text: word, pos: start}, nil
	default:
		// Two-char operators first.
		if l.pos+1 < len(l.src) {
			two := l.src[l.pos : l.pos+2]
			switch two {
			case "<>", "<=", ">=", "!=":
				l.pos += 2
				if two == "!=" {
					two = "<>"
				}
				return token{kind: tokSymbol, text: two, pos: start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '.', '=', '<', '>', '+', '-', '*', '/', ';':
			l.pos++
			return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
		}
		return token{}, fmt.Errorf("unexpected character %q at offset %d", c, start)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c)) || isDigit(c)
}
