package autorfm

// TestDocLinks is the documentation link checker CI runs: every relative
// markdown link in README.md and docs/*.md must point at a file that
// exists, and every fragment (#anchor) must match a heading in the target
// file under GitHub's slugging rules. External (scheme-qualified) links are
// out of scope — CI must not depend on the network.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docFiles returns the markdown files under the link checker's contract.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

// stripFences removes fenced code blocks (``` ... ```) and inline code
// spans so links inside examples are not checked.
func stripFences(src string) string {
	var out strings.Builder
	inFence := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			out.WriteString("\n")
			continue
		}
		if inFence {
			out.WriteString("\n")
			continue
		}
		out.WriteString(stripInlineCode(line))
		out.WriteString("\n")
	}
	return out.String()
}

func stripInlineCode(line string) string {
	var out strings.Builder
	inCode := false
	for _, r := range line {
		if r == '`' {
			inCode = !inCode
			continue
		}
		if !inCode {
			out.WriteRune(r)
		}
	}
	return out.String()
}

// slug reproduces GitHub's heading→anchor rule: lowercase, strip markdown
// formatting, drop anything that is not a letter, digit, space, hyphen or
// underscore, then turn spaces into hyphens. Duplicate headings get -1,
// -2, … suffixes.
func slug(heading string) string {
	h := strings.TrimSpace(heading)
	h = strings.NewReplacer("`", "", "*", "", "[", "", "]", "").Replace(h)
	var out strings.Builder
	for _, r := range h {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			out.WriteRune(unicode.ToLower(r))
		case r == ' ':
			out.WriteRune('-')
		}
	}
	return out.String()
}

var headingRE = regexp.MustCompile(`^#{1,6}\s+(.*)$`)

// anchorsOf returns the set of valid fragment targets in a markdown file.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading link target %s: %v", path, err)
	}
	anchors := make(map[string]bool)
	counts := make(map[string]int)
	inFence := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := slug(m[1])
		if n := counts[s]; n > 0 {
			anchors[s+"-"+strconv.Itoa(n)] = true
		} else {
			anchors[s] = true
		}
		counts[s]++
	}
	return anchors
}

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocLinks(t *testing.T) {
	anchorCache := make(map[string]map[string]bool)
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		body := stripFences(string(raw))
		for _, m := range linkRE.FindAllStringSubmatch(body, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				continue // anchors only checked in markdown targets
			}
			anchors, ok := anchorCache[resolved]
			if !ok {
				anchors = anchorsOf(t, resolved)
				anchorCache[resolved] = anchors
			}
			if !anchors[frag] {
				t.Errorf("%s: link %q: no heading in %s slugs to %q", file, target, resolved, frag)
			}
		}
	}
}

// TestDocsIndexed: every file in docs/ must be reachable from the README's
// documentation index, so new documents don't go dark.
func TestDocsIndexed(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if !strings.Contains(readme, d) {
			t.Errorf("README.md does not link %s; add it to the documentation index", d)
		}
	}
}

// definedFlags returns the flag names cmd/<command>/main.go defines: the
// name argument of every flag.String, flag.Int64, flag.BoolVar, ... call.
func definedFlags(t *testing.T, command string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", command, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0 // flag.String(name, ...), flag.Func(name, ...)
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1 // flag.StringVar(&v, name, ...), flag.Var(v, name, ...)
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("found no flag definitions in cmd/%s/main.go", command)
	}
	return flags
}

var (
	// commandRE finds a CLI's name; the flags of that invocation follow it.
	commandRE = regexp.MustCompile(`autorfm-(bench|sim|attack)\b`)
	// docFlagRE finds a -flag or --flag that starts a word.
	docFlagRE = regexp.MustCompile("(?:^|[\\s`(\\[])--?([A-Za-z][\\w-]*)")
)

// TestDocFlags: every -flag a document writes after autorfm-bench,
// autorfm-sim or autorfm-attack on the same line — up to a |, ;, & or #,
// where the command line ends — must be a flag that command's main.go
// defines, so a deleted or renamed flag cannot linger in the docs.
func TestDocFlags(t *testing.T) {
	defined := make(map[string]map[string]bool)
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			cmds := commandRE.FindAllStringSubmatchIndex(line, -1)
			for j, m := range cmds {
				command := "autorfm-" + line[m[2]:m[3]]
				end := len(line)
				if j+1 < len(cmds) {
					end = cmds[j+1][0]
				}
				args := line[m[1]:end]
				if k := strings.IndexAny(args, "|;&#"); k >= 0 {
					args = args[:k]
				}
				if defined[command] == nil {
					defined[command] = definedFlags(t, command)
				}
				for _, f := range docFlagRE.FindAllStringSubmatch(args, -1) {
					if !defined[command][f[1]] {
						t.Errorf("%s:%d: %s has no flag -%s", file, i+1, command, f[1])
					}
				}
			}
		}
	}
}
