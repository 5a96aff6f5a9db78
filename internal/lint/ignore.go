package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignore is one parsed //lint:ignore comment.
type ignore struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// badIgnore is a malformed suppression comment, reported as a finding.
type badIgnore struct {
	pos token.Position
	msg string
}

// ignoreIndex locates suppression comments by (file, line). A finding at
// line L is suppressed by a matching ignore on L (end-of-line comment)
// or L-1 (comment on its own line above the flagged statement).
type ignoreIndex struct {
	byLine    map[string]map[int][]*ignore
	all       []*ignore
	malformed []badIgnore
}

const ignorePrefix = "lint:ignore"

// knownAnalyzers is the set of names an ignore may reference: the suite
// plus the zero-alloc gate and staleignore itself is deliberately absent
// (an unsuppressable meta-check keeps the mechanism honest).
func knownAnalyzers() map[string]bool {
	m := map[string]bool{"zeroalloc": true}
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

// collectIgnores parses every //lint:ignore comment in the loaded files.
func collectIgnores(load *Load) *ignoreIndex {
	idx := &ignoreIndex{byLine: make(map[string]map[int][]*ignore)}
	known := knownAnalyzers()
	for _, pkg := range load.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					pos := load.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						idx.malformed = append(idx.malformed, badIgnore{pos, "//lint:ignore without an analyzer name"})
						continue
					case len(fields) == 1:
						idx.malformed = append(idx.malformed, badIgnore{pos,
							fmt.Sprintf("//lint:ignore %s without a reason — say why the rule does not apply", fields[0])})
						continue
					case !known[fields[0]]:
						idx.malformed = append(idx.malformed, badIgnore{pos,
							fmt.Sprintf("//lint:ignore names unknown analyzer %q", fields[0])})
						continue
					}
					ig := &ignore{
						analyzer: fields[0],
						reason:   strings.TrimSpace(strings.TrimPrefix(rest, fields[0])),
						pos:      pos,
					}
					idx.all = append(idx.all, ig)
					lines := idx.byLine[pos.Filename]
					if lines == nil {
						lines = make(map[int][]*ignore)
						idx.byLine[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], ig)
				}
			}
		}
	}
	return idx
}

// suppress reports whether a finding by analyzer at pos is covered by an
// ignore comment, marking the ignore as used.
func (idx *ignoreIndex) suppress(analyzer string, pos token.Position) bool {
	lines := idx.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, ig := range lines[line] {
			if ig.analyzer == analyzer {
				ig.used = true
				return true
			}
		}
	}
	return false
}

// Annotation directives: the grammar has exactly one production,
//
//	//enduratrace:zeroalloc   (on a function declaration)
//
// validateDirectives reports any //enduratrace: comment outside that
// grammar, so a typo'd annotation fails loudly instead of silently
// gating nothing.
const directivePrefix = "enduratrace:"

func validateDirectives(load *Load, r *runner) {
	for _, pkg := range load.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
					pos := load.Fset.Position(c.Pos())
					bad := func(msg string) {
						r.add("directive", "the grammar is //enduratrace:zeroalloc", pos, msg)
					}
					switch {
					case len(fields) == 0:
						bad("//enduratrace: directive without a name")
					case fields[0] == "zeroalloc":
						if len(fields) != 1 {
							bad("//enduratrace:zeroalloc takes no arguments")
						}
					default:
						bad(fmt.Sprintf("unknown //enduratrace: directive %q", fields[0]))
					}
				}
			}
		}
	}
}

// funcHasDirective reports whether a function declaration's doc comment
// carries the given //enduratrace: directive (e.g. "zeroalloc").
func funcHasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directivePrefix+name {
			return true
		}
	}
	return false
}
