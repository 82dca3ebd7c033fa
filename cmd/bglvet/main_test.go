package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bglpred/internal/analysis"
)

func sampleFindings(t *testing.T) []analysis.Finding {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return []analysis.Finding{
		{
			Analyzer: "lockorder",
			Pos:      token.Position{Filename: filepath.Join(cwd, "sub", "a.go"), Line: 12, Column: 3},
			Message:  `lock-order cycle: a.mu → b.mu (x.go:1 via pkg.F), b.mu → a.mu (y.go:2 via pkg.G)`,
		},
		{
			Analyzer:     "hotpathalloc",
			Pos:          token.Position{Filename: "/outside/module/b.go", Line: 7, Column: 9},
			Message:      `string ↔ []byte conversion (copies) on the hot path (reached from raslog.ReadFrame)`,
			SuggestedFix: "hoist the allocation out of the hot path, reuse an amortized buffer, or move the work to the slow path",
		},
		{
			Analyzer: "wrapsentinel",
			Pos:      token.Position{Filename: filepath.Join(cwd, "c.go"), Line: 3, Column: 2},
			Message:  `message with "quotes" and a back\slash`,
		},
	}
}

// TestWriteJSONFormat pins the wire format: one object per line, fields
// in (file, line, col, analyzer, message[, fix]) order, paths under the
// working directory relativized with forward slashes.
func TestWriteJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, sampleFindings(t)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}

	var first jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if first.File != "sub/a.go" {
		t.Errorf("in-tree path not relativized: %q", first.File)
	}
	if first.Line != 12 || first.Col != 3 || first.Analyzer != "lockorder" {
		t.Errorf("line 1 fields wrong: %+v", first)
	}

	var second jsonFinding
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 is not valid JSON: %v", err)
	}
	if second.File != "/outside/module/b.go" {
		t.Errorf("out-of-tree path mangled: %q", second.File)
	}
	if second.Fix == "" {
		t.Error("suggested fix dropped from JSON output")
	}
	if strings.Contains(lines[0], `"fix"`) {
		t.Error("fix field emitted for finding without one")
	}

	// Field order is part of the contract — the problem-matcher regexp
	// depends on it, and encoding/json preserves struct order.
	for i, line := range lines {
		fileIdx := strings.Index(line, `"file"`)
		lineIdx := strings.Index(line, `"line"`)
		colIdx := strings.Index(line, `"col"`)
		anIdx := strings.Index(line, `"analyzer"`)
		msgIdx := strings.Index(line, `"message"`)
		if !(fileIdx >= 0 && fileIdx < lineIdx && lineIdx < colIdx && colIdx < anIdx && anIdx < msgIdx) {
			t.Errorf("line %d: field order broken: %s", i+1, line)
		}
	}
}

// TestProblemMatcherParsesJSON reads the GitHub Actions problem-matcher
// shipped in .github/ and proves its regexp extracts the right groups
// from real writeJSON output — the two artifacts cannot drift apart
// without failing here.
func TestProblemMatcherParsesJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "bglvet-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Owner   string `json:"owner"`
			Pattern []struct {
				Regexp  string `json:"regexp"`
				File    int    `json:"file"`
				Line    int    `json:"line"`
				Column  int    `json:"column"`
				Code    int    `json:"code"`
				Message int    `json:"message"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatalf("problem-matcher file is not valid JSON: %v", err)
	}
	if len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("expected exactly one matcher with one pattern, got %+v", matcher)
	}
	m := matcher.ProblemMatcher[0]
	if m.Owner != "bglvet" {
		t.Errorf("matcher owner = %q, want bglvet", m.Owner)
	}
	p := m.Pattern[0]
	re, err := regexp.Compile(p.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile as RE2: %v", err)
	}

	findings := sampleFindings(t)
	var buf bytes.Buffer
	if err := writeJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, line := range lines {
		groups := re.FindStringSubmatch(line)
		if groups == nil {
			t.Fatalf("matcher regexp does not match writeJSON line %d: %s", i+1, line)
		}
		f := findings[i]
		if got := groups[p.Line]; got != itoa(f.Pos.Line) {
			t.Errorf("line %d: extracted line %q, want %d", i+1, got, f.Pos.Line)
		}
		if got := groups[p.Column]; got != itoa(f.Pos.Column) {
			t.Errorf("line %d: extracted column %q, want %d", i+1, got, f.Pos.Column)
		}
		if got := groups[p.Code]; got != f.Analyzer {
			t.Errorf("line %d: extracted analyzer %q, want %q", i+1, got, f.Analyzer)
		}
		if groups[p.File] == "" {
			t.Errorf("line %d: empty file group", i+1)
		}
		// The message group captures the JSON-escaped form; unescaping
		// it must round-trip to the original message.
		var msg string
		if err := json.Unmarshal([]byte(`"`+groups[p.Message]+`"`), &msg); err != nil {
			t.Errorf("line %d: message group %q is not a JSON string body: %v", i+1, groups[p.Message], err)
		} else if msg != f.Message {
			t.Errorf("line %d: message round-trip = %q, want %q", i+1, msg, f.Message)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestBuildFailureExits64 points bglvet at a package that fails to
// type-check: it stops with status 64 and the go command's error
// instead of analyzing a half-checked package.
func TestBuildFailureExits64(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./testdata/broken"}, &stdout, &stderr); code != 64 {
		t.Fatalf("exit status %d, want 64; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `broken.go:5:13: cannot use "not an int"`) {
		t.Errorf("stderr lacks the go list error:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("findings printed for a package that does not build:\n%s", stdout.String())
	}
}
