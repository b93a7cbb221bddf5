package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// module is the one loader of this test binary: the module and both
// fixtures, so the standard library is type-checked from source once.
// The fixtures sit under internal/ paths outside the module, which no
// check's scope and no rule's reads take in.
var module = sync.OnceValues(func() (*Loader, error) {
	l, err := NewLoader("../..")
	if err != nil {
		return nil, err
	}
	l.dirs["fix/internal/sim"] = "testdata/src/determinism"
	l.dirs["fix/internal/errs"] = "testdata/src/errcheck"
	return l, nil
})

// loadFixture loads a package of the shared loader.
func loadFixture(t *testing.T, path string) *pkg {
	t.Helper()
	l, err := module()
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGolden runs each check over its fixture package under
// testdata/src and matches the findings against the
// // want `regex` expectation comments in the fixture sources. Every
// finding must be wanted on its exact line, and every want must be
// matched.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(*pkg) []string
		path  string
	}{
		{"determinism", determinism, "fix/internal/sim"},
		{"errcheck", errcheck, "fix/internal/errs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := loadFixture(t, c.path)
			checkWants(t, p, c.check(p))
		})
	}
}

// want expectations look like:
//
//	expr // want `regexp` `another regexp`
//
// with each backquoted (or double-quoted) pattern expecting one
// finding on that line.
var wantRx = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")

var wantArgRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type wantExpectation struct {
	rx      *regexp.Regexp
	matched bool
}

// collectWants parses the expectation comments of the fixture files,
// keyed by the "file:line:" prefix of the findings they expect.
func collectWants(t *testing.T, p *pkg) map[string][]*wantExpectation {
	t.Helper()
	wants := map[string][]*wantExpectation{}
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.fset.Position(c.Slash)
				key := fmt.Sprintf("%s:%d:", pos.Filename, pos.Line)
				for _, arg := range wantArgRx.FindAllString(m[1], -1) {
					var pattern string
					if strings.HasPrefix(arg, "`") {
						pattern = strings.Trim(arg, "`")
					} else {
						var err error
						pattern, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s bad want pattern %s: %v", key, arg, err)
						}
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s bad want regexp %q: %v", key, pattern, err)
					}
					wants[key] = append(wants[key], &wantExpectation{rx: rx})
				}
			}
		}
	}
	return wants
}

// checkWants matches findings against expectations one-to-one.
func checkWants(t *testing.T, p *pkg, found []string) {
	t.Helper()
	wants := collectWants(t, p)
	for _, f := range found {
		pos := strings.SplitN(f, ":", 3)
		matched := false
		for _, w := range wants[pos[0]+":"+pos[1]+":"] {
			if !w.matched && w.rx.MatchString(f) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s expected a finding matching %q, got none", key, w.rx)
			}
		}
	}
}

// TestFixtureCount guards against the determinism fixture silently
// losing its teeth.
func TestFixtureCount(t *testing.T) {
	found := determinism(loadFixture(t, "fix/internal/sim"))
	if len(found) < 5 {
		t.Errorf("determinism fixture produced %d findings, want >= 5", len(found))
	}
	for _, f := range found {
		if !strings.HasSuffix(f, " (determinism)") {
			t.Errorf("finding not attributed to determinism: %s", f)
		}
	}
}

// TestWholeTreeClean holds the module to both checks and the rule
// table in the ordinary test run, so a finding in a package a change
// did not touch still fails that change's tests.
func TestWholeTreeClean(t *testing.T) {
	l, err := module()
	if err != nil {
		t.Fatal(err)
	}
	found, err := l.lint()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}
