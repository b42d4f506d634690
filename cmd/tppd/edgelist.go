package main

import (
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// edgeList is the wire form of a list of string-labelled node pairs,
// [["a","b"],...]. A create body is mostly this list, so it decodes
// without reflection: the canonical shape (plain strings, exactly two per
// pair, any whitespace) is parsed straight from the raw bytes, and every
// other shape (escapes, invalid UTF-8, non-strings, other arities, null)
// falls back to encoding/json on a [][2]string. Values and errors are
// therefore those of a plain [][2]string field.
//
// Labels from the fast path share one copy of the raw bytes; a caller that
// keeps a label past the request clones it (graphFromPairs does).
type edgeList [][2]string

// UnmarshalJSON implements json.Unmarshaler.
func (l *edgeList) UnmarshalJSON(data []byte) error {
	if pairs, ok := parsePairs(data); ok {
		*l = pairs
		return nil
	}
	return json.Unmarshal(data, (*[][2]string)(l))
}

// parsePairs parses data as [["a","b"],...] with plain string labels and
// reports false on anything else. The input is copied once; every label
// is a substring of that copy.
func parsePairs(data []byte) ([][2]string, bool) {
	s := string(data)
	i := skipSpace(s, 0)
	if i == len(s) || s[i] != '[' {
		return nil, false
	}
	// Every pair opens with '[' and spans at least 7 bytes (["",""]), so
	// both bound the pair count from above.
	out := make([][2]string, 0, min(strings.Count(s, "[")-1, len(s)/7))
	if i = skipSpace(s, i+1); i < len(s) && s[i] == ']' {
		return out, skipSpace(s, i+1) == len(s)
	}
	for {
		if i == len(s) || s[i] != '[' {
			return nil, false
		}
		var p [2]string
		for k, closer := range [2]byte{',', ']'} {
			label, next, ok := plainString(s, skipSpace(s, i+1))
			if !ok {
				return nil, false
			}
			if i = skipSpace(s, next); i == len(s) || s[i] != closer {
				return nil, false
			}
			p[k] = label
		}
		out = append(out, p)
		if i = skipSpace(s, i+1); i == len(s) {
			return nil, false
		}
		switch s[i] {
		case ',':
			i = skipSpace(s, i+1)
		case ']':
			return out, skipSpace(s, i+1) == len(s)
		default:
			return nil, false
		}
	}
}

// plainString reads the JSON string starting at s[i] and returns its
// contents and the index after the closing quote. It reports false for a
// string it cannot return verbatim: one with an escape, a control byte or
// invalid UTF-8 (encoding/json rewrites those).
func plainString(s string, i int) (string, int, bool) {
	if i == len(s) || s[i] != '"' {
		return "", 0, false
	}
	ascii := true
	for j := i + 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			label := s[i+1 : j]
			return label, j + 1, ascii || utf8.ValidString(label)
		case c == '\\' || c < 0x20:
			return "", 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", 0, false
}

// skipSpace returns the index of the first non-whitespace byte at or after
// s[i] (len(s) if none), with whitespace as JSON defines it.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}
