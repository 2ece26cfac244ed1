package trace

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON literals for the tree's hand-rolled encoders: the shard labels of
// WriteNDJSON and WriteChrome here, and the expositions, tables and span
// exports of internal/obs, internal/sim and internal/attr.

// JSONString quotes s as a JSON string literal, escaping only what JSON
// requires: the quote and the backslash, \n, \r and \t by name, and every
// other control character below U+0020 as \u00XX. It walks runes, so an
// invalid UTF-8 byte becomes U+FFFD and the literal is always valid JSON.
func JSONString(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r == '\n':
			b = append(b, `\n`...)
		case r == '\r':
			b = append(b, `\r`...)
		case r == '\t':
			b = append(b, `\t`...)
		case r < 0x20:
			b = append(b, `\u00`...)
			b = append(b, hexDigits[r>>4], hexDigits[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return string(append(b, '"'))
}

const hexDigits = "0123456789abcdef"

// JSONFloat formats v as a JSON number in its shortest round-trip form.
// JSON has no NaN or infinities; they render as null.
func JSONFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
