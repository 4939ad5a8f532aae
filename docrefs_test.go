package radar

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents whose references to the code must stay real.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// foreignGoFiles are .go names the docs cite that belong to the Go
// distribution, not this module, with the reason each is cited.
var foreignGoFiles = map[string]string{
	"exp_asm.go": "math.Exp's assembly switch, cited for the float results that differ across GOARCH",
}

var (
	codeSpan   = regexp.MustCompile("`[^`\n]+`")
	goPath     = regexp.MustCompile(`[\w./-]+\.go\b`)
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*\*?`)
	runPattern = regexp.MustCompile(`(?:^|[\s\x60])-(?:run|bench)\s+('[^']*'|"[^"]*"|\S+)`)
	invocation = regexp.MustCompile(`(?:^|[\s/])radar-([a-z]+)\s(.*)`)
	declared   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	cliFlag    = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)`)
)

// TestDocReferences checks that every file, test and command-line flag
// the docs cite exists: a backticked .go path names a file of the repo, a
// test, benchmark, fuzz or example name is declared in some _test.go file
// (a name ending in * and a -run or -bench pattern must match at least one),
// and a radar-<cmd> line in a code block runs a command of cmd/ with flags
// its main.go defines.
func TestDocReferences(t *testing.T) {
	var files []string
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declared.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docProblems(string(src), files, names) {
			t.Errorf("%s:%s", doc, p)
		}
	}
}

// docProblems lists, as "line: problem", every reference in the markdown
// text src that names a file missing from files (slash paths from the repo
// root), a test missing from names, or a command or flag missing from cmd/.
func docProblems(src string, files []string, names map[string]bool) []string {
	var out []string
	bad := func(line int, format string, args ...any) {
		out = append(out, fmt.Sprintf("%d: ", line)+fmt.Sprintf(format, args...))
	}
	fenced := false
	for i, line := range strings.Split(src, "\n") {
		n := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, p := range goPath.FindAllString(span, -1) {
				if _, ok := foreignGoFiles[p]; !ok && resolveGoPath(p, files) == "" {
					bad(n, "%s resolves to no file of the repo", p)
				}
			}
		}
		patterns := runPattern.FindAllStringSubmatchIndex(line, -1)
		for _, loc := range testName.FindAllStringIndex(line, -1) {
			name := line[loc[0]:loc[1]]
			if inside(loc[0], patterns) {
				continue
			}
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				if !matchesAny("^"+regexp.QuoteMeta(prefix), names) {
					bad(n, "%s matches no declared test", name)
				}
			} else if !names[name] {
				bad(n, "%s is declared in no _test.go file", name)
			}
		}
		for _, loc := range patterns {
			top, _, _ := strings.Cut(strings.Trim(line[loc[2]:loc[3]], `'"`), "/")
			for _, alt := range strings.Split(top, "|") {
				if alt == "^$" || alt == "." {
					continue
				}
				if _, err := regexp.Compile(alt); err != nil || !matchesAny(alt, names) {
					bad(n, "pattern %q matches no declared test", alt)
				}
			}
		}
		if fenced {
			out = append(out, cmdProblems(n, line)...)
		}
	}
	return out
}

// resolveGoPath finds the repo file a doc's .go path names: the path as
// written, the path under internal/, or the one file the path is a suffix
// of. It returns "" when none or several match.
func resolveGoPath(p string, files []string) string {
	p = strings.TrimPrefix(p, "./")
	var suffixed []string
	for _, f := range files {
		if f == p || f == "internal/"+p {
			return f
		}
		if strings.HasSuffix(f, "/"+p) {
			suffixed = append(suffixed, f)
		}
	}
	if len(suffixed) == 1 {
		return suffixed[0]
	}
	return ""
}

// cmdProblems checks one code-block line: each radar-<cmd> invocation on
// it must name a cmd/radar-<cmd>/main.go that defines every flag passed.
func cmdProblems(n int, line string) []string {
	var out []string
	for rest := line; ; {
		m := invocation.FindStringSubmatchIndex(rest)
		if m == nil {
			return out
		}
		cmd, args := rest[m[2]:m[3]], rest[m[4]:m[5]]
		rest = args
		flags := cmdFlags(args)
		if len(flags) == 0 {
			continue
		}
		main := filepath.Join("cmd", "radar-"+cmd, "main.go")
		src, err := os.ReadFile(main)
		if err != nil {
			out = append(out, fmt.Sprintf("%d: radar-%s is no command of cmd/", n, cmd))
			continue
		}
		for _, f := range flags {
			def := regexp.MustCompile(`flag\.\w+\(\s*(?:&\w+,\s*)?"` + regexp.QuoteMeta(f) + `"`)
			if !def.Match(src) {
				out = append(out, fmt.Sprintf("%d: radar-%s has no -%s flag", n, cmd, f))
			}
		}
	}
}

// cmdFlags returns the flag names among a command's arguments, up to the
// first shell operator or comment; quoted values are skipped whole.
func cmdFlags(args string) []string {
	var flags []string
	for args = strings.TrimSpace(args); args != ""; args = strings.TrimSpace(args) {
		var tok string
		switch q := args[0]; q {
		case '"', '\'':
			end := strings.IndexByte(args[1:], q)
			if end < 0 {
				return flags
			}
			tok, args = args[:end+2], args[end+2:]
		default:
			end := strings.IndexAny(args, " \t")
			if end < 0 {
				end = len(args)
			}
			tok, args = args[:end], args[end:]
		}
		if strings.ContainsAny(tok[:1], "|;&>#") {
			return flags
		}
		if m := cliFlag.FindStringSubmatch(tok); m != nil {
			flags = append(flags, m[1])
		}
	}
	return flags
}

// inside reports whether offset i lies in the captured pattern of one of
// the -run/-bench matches locs.
func inside(i int, locs [][]int) bool {
	for _, l := range locs {
		if i >= l[2] && i < l[3] {
			return true
		}
	}
	return false
}

// matchesAny reports whether the regexp pattern matches any name.
func matchesAny(pattern string, names map[string]bool) bool {
	re := regexp.MustCompile(pattern)
	for name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
