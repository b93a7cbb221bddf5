// Command goearvet runs the repository's static-analysis suite: three
// repo-specific analyzers, determinism, unitsafety and errcheck, for
// the rules no compiler, go vet or runtime check already holds. It is
// built on internal/analysis and uses only the standard library;
// packages are type-checked from source, so the tool needs no build
// cache or installed artifacts.
//
// Usage:
//
//	go run ./cmd/goearvet ./...
//	go run ./cmd/goearvet -json ./internal/msr ./internal/uncore
//
// Patterns are import paths or ./-relative directories, with an
// optional /... suffix for recursion. With no pattern, ./... is
// assumed. goearvet only reports; it never rewrites a file. CI and
// this command's own tests run it over the whole tree, so a change
// that breaks a package it did not touch still fails.
//
// Exit status is 0 for a clean tree, 1 when findings were reported, 2
// on usage or load errors.
//
// Findings are suppressed line by line with an annotation carrying a
// mandatory reason:
//
//	v := ratio * gran //goearvet:ignore count times granularity
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"goear/internal/analysis"
	"goear/internal/analysis/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("goearvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analyzers.All()
	if *list {
		sorted := append([]*analysis.Analyzer(nil), all...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, a := range sorted {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "goearvet:", err)
		return 2
	}
	loader := analysis.NewLoader()
	modPath, err := loader.AddModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "goearvet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := resolvePatterns(loader, root, modPath, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "goearvet:", err)
		return 2
	}

	pkgs, err := loader.LoadAll(paths)
	if err != nil {
		fmt.Fprintln(stderr, "goearvet:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, all)
	if err != nil {
		fmt.Fprintln(stderr, "goearvet:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "goearvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "goearvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// resolvePatterns expands package patterns against the loader's
// registered module packages. Accepted forms: "./...", "./dir",
// "./dir/...", "importpath", "importpath/...".
func resolvePatterns(loader *analysis.Loader, root, modPath string, patterns []string) ([]string, error) {
	known := loader.Paths()
	set := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		imp, err := patternImportPath(root, modPath, pat)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, p := range known {
			if p == imp || (recursive && (imp == modPath || strings.HasPrefix(p, imp+"/"))) {
				set[p] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// patternImportPath maps one pattern (sans any /... suffix) to an
// import path.
func patternImportPath(root, modPath, pat string) (string, error) {
	if pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") {
		cwd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		abs := filepath.Clean(filepath.Join(cwd, pat))
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("pattern %q escapes the module at %s", pat, root)
		}
		if rel == "." {
			return modPath, nil
		}
		return modPath + "/" + filepath.ToSlash(rel), nil
	}
	return pat, nil
}
