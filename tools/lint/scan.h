// The shared scanner core of every ddtr_lint pass. The per-file rules,
// the dependency/layering analyzer and the accounting registry consume
// the same primitives: a "code view" of the file with comments and
// literals blanked (offsets preserved 1:1), a token-level
// function-definition finder, an include-directive scanner, and the
// `// ddtr-lint: allow(...)` suppression machinery. One scan per file
// (SourceFile) feeds every pass — no file is tokenized twice.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint.h"

namespace ddtr::lint {

// --- Source scrubbing ---------------------------------------------------
// Everything downstream works on a "code view" of the file: the same
// length as the original (so offsets map 1:1), with comment bodies and
// string/char literal contents blanked to spaces. Comments are collected
// separately, per line — they carry the suppression and accounting-region
// markers.

struct Scrubbed {
  std::string code;                   // literals/comments blanked
  std::vector<std::string> comment;   // per-line comment text, merged
  std::vector<std::size_t> line_off;  // offset of each line start
};

Scrubbed scrub(const std::string& text);

// 1-based line number of a byte offset.
std::size_t line_of(const Scrubbed& s, std::size_t offset);

// The code view of one 1-based line ("" when out of range).
std::string code_line(const Scrubbed& s, std::size_t line1);

// --- Function extraction ------------------------------------------------
// Token-level definition finder: identifier, balanced parameter list,
// then (skipping cv-qualifiers, noexcept, trailing return, ctor-init
// lists) an opening brace. Calls end in `;` or an operator instead and
// are skipped. Good enough for this codebase's style; the unit tests pin
// the cases the rules rely on.

struct FuncDef {
  std::string name;
  std::size_t sig_begin = 0;   // offset of the name
  std::size_t body_begin = 0;  // offset of '{'
  std::size_t body_end = 0;    // offset past matching '}'
};

// Innermost definition whose body contains `offset` (nullptr if none).
const FuncDef* enclosing_function(const std::vector<FuncDef>& defs,
                                  std::size_t offset);

// --- Include extraction -------------------------------------------------

struct IncludeDirective {
  std::size_t line = 0;  // 1-based
  bool angle = false;    // <...> vs "..."
  std::string target;    // the bytes between the delimiters
};

// --- Path helpers -------------------------------------------------------

std::string normalize_path(const std::string& path);
bool path_has(const std::string& path, std::string_view needle);
bool is_header_path(const std::string& path);

// `s` without leading and trailing blanks (spaces, tabs, CRs).
std::string trimmed(const std::string& s);

// --- Suppressions -------------------------------------------------------

// `// ddtr-lint: allow(rule)` on the finding's line or the one before;
// `allow-file(rule)` anywhere in the file.
bool suppressed(const Scrubbed& s, const Finding& f);

// --- The once-per-file scan record --------------------------------------

struct SourceFile {
  std::string path;  // normalized; repo-relative when scanned from a tree
  Scrubbed scrubbed;
  std::vector<FuncDef> defs;
  std::vector<IncludeDirective> includes;  // every #include, in order
};

SourceFile make_source_file(const std::string& path,
                            const std::string& content);

// Reads a file as bytes; nullopt when unreadable.
std::optional<std::string> read_file_text(const std::string& path);

}  // namespace ddtr::lint
