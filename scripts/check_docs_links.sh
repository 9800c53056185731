#!/usr/bin/env bash
# Keep docs/ honest: every file referenced from the docs must exist
# (binaries resolve to their .cpp, directories to themselves), every
# `path:line` pointer must point inside the file, and README must
# actually link the doc pages. Pure grep/sed — no dependencies — so CI
# can run it anywhere. Run from the repository root.
set -u
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs_links: $*" >&2; fail=1; }

# 1. README links each doc page, and the pages exist.
for doc in docs/GLOSSARY.md docs/MAPPERS.md docs/PERF.md docs/CACHE.md \
           docs/OBSERVABILITY.md docs/API.md docs/ROBUSTNESS.md \
           docs/MRRG.md docs/FRONTEND.md; do
  [ -f "$doc" ] || err "$doc is missing"
  grep -q "$doc" README.md || err "README.md does not link $doc"
done

# 1b. No dangling doc pages: every docs/*.md must be reachable — named
# in README.md or linked from a sibling doc page. A page nobody links
# is a page nobody maintains.
for doc in docs/*.md; do
  base=$(basename "$doc")
  if grep -q "$doc" README.md; then continue; fi
  if grep -lE "\]\(($base|docs/$base)\)" docs/*.md | \
       grep -qv "^$doc\$"; then continue; fi
  err "$doc is dangling: not linked from README.md or any other doc page"
done

# 2. Every path-like reference in docs/*.md resolves. Two shapes:
#    `src/foo/bar.hpp:123` (line-anchored) and `src/foo/bar.cpp`,
#    plus bench/, scripts/ and tests/ paths.
refs=$(grep -hoE '`(src|bench|scripts|tests)/[A-Za-z0-9_./-]+(:[0-9]+)?`' \
         docs/*.md | tr -d '`' | sort -u)
[ -n "$refs" ] || err "no path references found in docs/ (regex broke?)"
for ref in $refs; do
  path=${ref%%:*}
  # Extensionless references name a built binary (bench/perf_suite ->
  # bench/perf_suite.cpp) or a directory (src/solver/).
  if [ ! -e "$path" ] && [ ! -f "${path%.}" ] && [ ! -f "$path.cpp" ]; then
    err "$ref: $path does not exist (nor $path.cpp)"
    continue
  fi
  case $ref in
    *:*)
      line=${ref##*:}
      if [ ! -f "$path" ]; then
        err "$ref: line-anchored reference to a non-file"
        continue
      fi
      total=$(wc -l < "$path")
      if [ "$line" -gt "$total" ]; then
        err "$ref: $path has only $total lines"
      fi
      ;;
  esac
done

# 2b. A line anchor must land on what its doc line names. When the line
#     names backticked symbols (`Foo`, `Foo::bar`, `Foo::Bar()`), one of
#     their identifiers must occur within 3 lines of every `path:line`
#     anchor on that line — so an anchor left behind by moved code, or a
#     row naming a symbol that does not exist, fails.
anchor_re='`(src|bench|scripts|tests)/[A-Za-z0-9_./-]+:[0-9]+`'
symbol_re='`[A-Za-z_][A-Za-z0-9_]*((::|\.)[A-Za-z_][A-Za-z0-9_]*)*(\(\))?`'
while IFS= read -r hit; do
  doc=${hit%%:*}
  rest=${hit#*:}
  doc_line=${rest%%:*}
  text=${rest#*:}
  names=$(printf '%s\n' "$text" | grep -oE "$symbol_re" | tr -d '`()' |
            tr ':.' '\n\n' | grep -v '^$' | sort -u)
  [ -n "$names" ] || continue
  for ref in $(printf '%s\n' "$text" | grep -oE "$anchor_re" | tr -d '`'); do
    path=${ref%%:*}
    line=${ref##*:}
    [ -f "$path" ] || continue  # already reported above
    lo=$((line > 3 ? line - 3 : 1))
    window=$(sed -n "${lo},$((line + 3))p" "$path")
    found=0
    for name in $names; do
      if printf '%s\n' "$window" | grep -qw -- "$name"; then
        found=1
        break
      fi
    done
    [ "$found" -eq 1 ] ||
      err "$doc:$doc_line: $ref is not near any of: $(echo $names)"
  done
done < <(grep -nE "$anchor_re" docs/*.md)

# 3. Relative markdown links inside docs/ resolve.
links=$(grep -hoE '\]\(([A-Za-z0-9_./-]+\.md)\)' docs/*.md | \
          sed -E 's/^\]\((.*)\)$/\1/' | sort -u)
for l in $links; do
  [ -f "docs/$l" ] || [ -f "$l" ] || err "docs link $l does not resolve"
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs_links: FAILED" >&2
  exit 1
fi
echo "check_docs_links: OK ($(echo "$refs" | wc -l) path refs checked)"
