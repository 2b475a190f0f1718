// Command apidrift keeps API.md honest. It extracts:
//
//   - the route table from internal/server/http.go (every
//     `{Method: "...", Path: "..."}` entry in Routes()),
//   - any direct mux registration in internal/server/*.go
//     (`HandleFunc("METHOD /api/v1/...")`), so a streaming or
//     special-cased endpoint wired outside the table cannot dodge the
//     check, and
//   - the error-code registry from internal/server/errors.go (every
//     `Code... ErrCode = "..."` constant),
//
// then cross-checks both against API.md: every route must have a
// `### `METHOD /api/v1/path“ heading (and vice versa — documented
// endpoints must exist in code), and every code must appear as a
// “ `code` “ row in the registry table (and vice versa). Any drift
// in either direction is a failure, so the doc cannot rot silently.
//
// It also enforces the support policy API.md states: the portal API
// lives under /api/v1 only. A Handle or HandleFunc pattern in
// internal/server that names an /api path outside /api/v1 (an
// unversioned alias, say) fails the check, as does an APIVersion other
// than "/api/v1".
//
// Usage: go run ./scripts/apidrift [repo-root]   (default ".")
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	routeRe = regexp.MustCompile(`\{Method:\s*"(GET|POST|PUT|DELETE|PATCH)",\s*Path:\s*"([^"]+)"`)
	// Direct registrations bypassing the route table, e.g.
	// mux.HandleFunc("GET /api/v1/session/{id}/stream", ...).
	handleRe = regexp.MustCompile(`HandleFunc\("(GET|POST|PUT|DELETE|PATCH) (/api/v1[^"]*)"`)
	codeRe   = regexp.MustCompile(`Code\w+\s+ErrCode\s*=\s*"([^"]+)"`)
	// The pattern argument of any mux registration, literal or built.
	muxArgRe     = regexp.MustCompile(`\.Handle(?:Func)?\(([^,]+),`)
	apiVersionRe = regexp.MustCompile(`const APIVersion = "([^"]*)"`)
	// Endpoint headings in API.md: ### `POST /api/v1/login` (open)?
	headingRe = regexp.MustCompile("(?m)^### `(GET|POST|PUT|DELETE|PATCH) (/api/v1[^`]*)`")
	// Registry rows in API.md: | `code` | 429 | ... |
	rowRe = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| [0-9]{3} \\|")
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	httpSrc := mustRead(filepath.Join(root, "internal", "server", "http.go"))
	errSrc := mustRead(filepath.Join(root, "internal", "server", "errors.go"))
	doc := mustRead(filepath.Join(root, "API.md"))

	var drift []string
	if m := apiVersionRe.FindStringSubmatch(httpSrc); m == nil || m[1] != "/api/v1" {
		drift = append(drift, "APIVersion in http.go is not \"/api/v1\"")
	}
	codeRoutes := map[string]bool{}
	for _, m := range routeRe.FindAllStringSubmatch(httpSrc, -1) {
		codeRoutes[m[1]+" /api/v1"+m[2]] = true
	}
	srcs, err := filepath.Glob(filepath.Join(root, "internal", "server", "*.go"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "apidrift: %v\n", err)
		os.Exit(1)
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		text := mustRead(src)
		for _, m := range handleRe.FindAllStringSubmatch(text, -1) {
			codeRoutes[m[1]+" "+m[2]] = true
		}
		for _, m := range muxArgRe.FindAllStringSubmatch(text, -1) {
			if strings.Contains(strings.ReplaceAll(m[1], "/api/v1", ""), "/api") {
				drift = append(drift, fmt.Sprintf("mux pattern under /api outside /api/v1 in %s: %s",
					filepath.Base(src), strings.TrimSpace(m[1])))
			}
		}
	}
	docRoutes := map[string]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(doc, -1) {
		docRoutes[m[1]+" "+m[2]] = true
	}
	codes := map[string]bool{}
	for _, m := range codeRe.FindAllStringSubmatch(errSrc, -1) {
		codes[m[1]] = true
	}
	docCodes := map[string]bool{}
	for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
		docCodes[m[1]] = true
	}

	if len(codeRoutes) == 0 || len(codes) == 0 {
		fmt.Fprintln(os.Stderr, "apidrift: extraction came up empty; the source patterns drifted")
		os.Exit(1)
	}

	drift = append(drift, diff("route undocumented in API.md", codeRoutes, docRoutes)...)
	drift = append(drift, diff("documented route missing from http.go", docRoutes, codeRoutes)...)
	drift = append(drift, diff("error code missing from API.md registry", codes, docCodes)...)
	drift = append(drift, diff("documented code missing from errors.go", docCodes, codes)...)

	if len(drift) > 0 {
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "apidrift: "+d)
		}
		os.Exit(1)
	}
	fmt.Printf("apidrift: API.md in sync (%d routes, %d error codes)\n",
		len(codeRoutes), len(codes))
}

// diff reports members of a that are absent from b, labelled.
func diff(label string, a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, fmt.Sprintf("%s: %s", label, k))
		}
	}
	sort.Strings(out)
	return out
}

func mustRead(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apidrift: %v\n", err)
		os.Exit(1)
	}
	return string(data)
}
