// Command docscheck verifies that the repository's markdown
// documentation does not rot: every relative link target in the given
// files (and every .md file under the given directories) must exist on
// disk. External links (http/https/mailto) and pure #fragment anchors
// are skipped — the check is about files in this repository, offline and
// deterministic, so CI can gate on it.
//
//	docscheck README.md ARCHITECTURE.md docs/
//
// Exit status 1 lists every broken link as file:line: target.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links [text](target). Reference-style
// links and autolinks are rare in this repository and stay out of scope.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// codeRE matches inline code spans of one or two backticks. They are
// blanked before links are matched, so link syntax quoted as code (say
// `f[W](ctx)`) is never checked.
var codeRE = regexp.MustCompile("``[^`]*(?:`[^`]+)*``|`[^`]*`")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: docscheck <file.md|dir>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var files []string
	for _, arg := range flag.Args() {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
	}

	broken := 0
	for _, f := range files {
		for _, b := range checkFile(f) {
			fmt.Fprintln(os.Stderr, b)
			broken++
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s) across %d file(s)\n", broken, len(files))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean\n", len(files))
}

// checkFile returns one "file:line: broken link: target" string per
// relative link in f whose target does not exist.
func checkFile(f string) []string {
	data, err := os.ReadFile(f)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", f, err)}
	}
	var out []string
	dir := filepath.Dir(f)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(codeRE.ReplaceAllString(line, " "), -1) {
			target := m[1]
			if skip(target) {
				continue
			}
			// Strip a trailing #section anchor; the file must still exist.
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				out = append(out, fmt.Sprintf("%s:%d: broken link: %s", f, i+1, m[1]))
			}
		}
	}
	return out
}

// skip reports whether the target is out of scope: external URLs and
// in-page anchors.
func skip(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}
