// Command wiredrift keeps WIRE.md honest. It extracts the wire-contract
// constants from source:
//
//   - frame types and flags from internal/wire/v2.go
//     (`V2Frame... V2FrameType = 0x..`, `V2Flag... uint8 = 0x..`),
//   - the connection preface, reply statuses, system error codes and
//     payload tags from internal/orb/proto.go (`wireMagic = "..."`,
//     `reply... = N`, `Code... = "..."`, `targetRef/targetDef = 0x..`,
//     `blobRaw/blobDef/blobRef = 0x..`),
//   - the trace trailer magic from internal/wire/meta.go
//     (`traceMetaMagic = "..."`),
//   - envelope response statuses from internal/wire/wire.go
//     (`Status... int32 = N`) and the ordered Kind iota block,
//
// then cross-checks them against WIRE.md's tables: every constant must
// appear as a `| `value` | `ConstName` |` row with the matching value,
// and every documented row must name a constant that exists in source
// with that value. Drift in either direction fails, so the normative
// spec cannot rot silently.
//
// Usage: go run ./scripts/wiredrift [repo-root]   (default ".")
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	frameRe  = regexp.MustCompile(`(V2Frame\w+)\s+V2FrameType = (0x[0-9a-fA-F]{2})`)
	flagRe   = regexp.MustCompile(`(V2Flag\w+)\s+uint8\s*= (0x[0-9a-fA-F]{2})`)
	magicRe  = regexp.MustCompile(`(?m)^(?:const |\t)(wireMagic|traceMetaMagic)\s*= "([^"]+)"`)
	replyRe  = regexp.MustCompile(`(?m)^\t(reply[A-Z]\w*)\s*= ([0-9]+)`)
	codeRe   = regexp.MustCompile(`(?m)^\t(Code\w+)\s*= "([^"]+)"`)
	tagRe    = regexp.MustCompile(`(?m)^\t(targetRef|targetDef|blobRaw|blobDef|blobRef)\s*= (0x[0-9a-fA-F]{2})`)
	statusRe = regexp.MustCompile(`(Status\w+)\s+int32 = ([0-9]+)`)
	kindRe   = regexp.MustCompile(`(?m)^\t(Kind\w+|kindSentinel)`)
	// Doc rows: | `value` | `ConstName` | ...
	rowRe = regexp.MustCompile("(?m)^\\| `([^`]+)` \\| `((?:V2Frame|V2Flag|wireMagic|traceMetaMagic|reply|Code|Status|Kind|targetRef|targetDef|blobRaw|blobDef|blobRef)\\w*)` \\|")
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	v2Src := mustRead(filepath.Join(root, "internal", "wire", "v2.go"))
	wireSrc := mustRead(filepath.Join(root, "internal", "wire", "wire.go"))
	metaSrc := mustRead(filepath.Join(root, "internal", "wire", "meta.go"))
	protoSrc := mustRead(filepath.Join(root, "internal", "orb", "proto.go"))
	doc := mustRead(filepath.Join(root, "WIRE.md"))

	// name -> normalized wire value, from source.
	code := map[string]string{}
	collect := func(src string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatch(src, -1) {
			code[m[1]] = normalize(m[2])
		}
	}
	collect(v2Src, frameRe)
	collect(v2Src, flagRe)
	collect(protoSrc, magicRe)
	collect(metaSrc, magicRe)
	collect(protoSrc, replyRe)
	collect(protoSrc, codeRe)
	collect(protoSrc, tagRe)
	collect(wireSrc, statusRe)

	// The Kind block assigns values by iota order; kindSentinel ends it
	// and is not part of the wire contract.
	for i, m := range kindRe.FindAllStringSubmatch(wireSrc, -1) {
		if m[1] == "kindSentinel" {
			break
		}
		code[m[1]] = strconv.Itoa(i)
	}

	docRows := map[string]string{}
	for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
		docRows[m[2]] = normalize(m[1])
	}

	if len(code) < 20 || len(docRows) == 0 {
		fmt.Fprintln(os.Stderr, "wiredrift: extraction came up empty; the source patterns drifted")
		os.Exit(1)
	}

	var drift []string
	for name, v := range code {
		dv, ok := docRows[name]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("constant undocumented in WIRE.md: %s = %s", name, v))
		case dv != v:
			drift = append(drift, fmt.Sprintf("value drift for %s: code says %s, WIRE.md says %s", name, v, dv))
		}
	}
	for name, v := range docRows {
		if _, ok := code[name]; !ok {
			drift = append(drift, fmt.Sprintf("documented constant missing from source: %s = %s", name, v))
		}
	}
	for _, magic := range []string{"wireMagic", "traceMetaMagic"} {
		if _, ok := code[magic]; !ok {
			drift = append(drift, fmt.Sprintf("protocol magic %s not found in source", magic))
		}
	}

	if len(drift) > 0 {
		sort.Strings(drift)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "wiredrift: "+d)
		}
		os.Exit(1)
	}
	fmt.Printf("wiredrift: WIRE.md in sync (%d wire constants)\n", len(code))
}

// normalize maps the value notations used in code and doc onto one
// form: hex like 0x01 becomes decimal, decimals pass through, anything
// else (error-code strings) is literal.
func normalize(v string) string {
	if strings.HasPrefix(v, "0x") || strings.HasPrefix(v, "0X") {
		if n, err := strconv.ParseUint(v[2:], 16, 64); err == nil {
			return strconv.FormatUint(n, 10)
		}
	}
	return v
}

func mustRead(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wiredrift: %v\n", err)
		os.Exit(1)
	}
	return string(data)
}
