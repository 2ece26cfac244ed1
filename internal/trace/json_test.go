package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// TestJSONStringMatchesEncodingJSON quotes every control character, the
// two JSON metacharacters, non-ASCII text and invalid UTF-8. Each literal
// must be valid UTF-8 JSON that decodes to the input with every invalid
// byte replaced by U+FFFD, and the escapes must be the minimal ones.
func TestJSONStringMatchesEncodingJSON(t *testing.T) {
	inputs := []string{"", "rank0", `a"b\c`, "é…世界 ", "a\xffb", "\xc3"}
	for c := rune(0); c < 0x20; c++ {
		inputs = append(inputs, "x"+string(c)+"y")
	}
	for _, s := range inputs {
		q := JSONString(s)
		var back string
		if err := json.Unmarshal([]byte(q), &back); err != nil || !utf8.ValidString(q) {
			t.Fatalf("JSONString(%q) = %q: valid UTF-8 %v, decode error %v", s, q, utf8.ValidString(q), err)
		}
		if want := string([]rune(s)); back != want {
			t.Fatalf("JSONString(%q) = %q decodes to %q, want %q", s, q, back, want)
		}
	}
	for s, want := range map[string]string{
		"a\"b\\c\nd\te\rf\x01g\x1f": `"a\"b\\c\nd\te\rf\u0001g\u001f"`,
		"a\xffb":                    "\"a\uFFFDb\"",
	} {
		if got := JSONString(s); got != want {
			t.Errorf("JSONString(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestShardLabelRoundTrip exports a shard whose label holds a control
// character in both formats: ReadNDJSON and encoding/json must read the
// label back unchanged.
func TestShardLabelRoundTrip(t *testing.T) {
	const label = "a\x01b"
	tr := New(4)
	tr.NewShard(label).Emit(Event{Kind: KindWriteback, Time: 1})
	var nd, chrome bytes.Buffer
	if err := WriteNDJSON(&nd, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	if _, labels, err := ReadNDJSON(&nd); err != nil || labels[0] != label {
		t.Fatalf("NDJSON label read back as %q, %v; want %q", labels[0], err, label)
	}
	var doc struct {
		TraceEvents []struct{ Args struct{ Name string } }
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || doc.TraceEvents[0].Args.Name != label {
		t.Fatalf("Chrome thread_name read back as %+v, %v; want %q", doc.TraceEvents, err, label)
	}
}
