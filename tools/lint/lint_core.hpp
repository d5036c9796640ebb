#pragma once
// aquamac-lint core: source model, lexer, annotation grammar and the
// cross-file symbol passes shared by every rule pass (see
// docs/static-analysis.md).
//
// PR 5 shipped the tool as one file; the state-coverage rules needed a
// second, structural symbol pass (per-class member inventories and
// function-definition body ranges), so the tool is now a small pipeline:
//
//   lint_core      lexer + allow/directive parsing + symbol passes
//   rules_lexical  the five PR 5 token-pattern rules
//   rules_state    the state-coverage rules (state-coverage,
//                  shard-shared-mutable)
//   aquamac_lint   driver (file set, report, --list-allows audit)
//
// Everything stays dependency-free C++20: the CI container guarantees
// only a toolchain, and each pass is expressible over the token stream
// plus these symbol tables.

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace aquamac_lint {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Source model
// ---------------------------------------------------------------------

struct Token {
  std::string text;
  std::size_t line{0};  ///< 1-based
  std::size_t col{0};   ///< 1-based
  bool is_ident{false};
};

/// `// aquamac-lint: allow(rule...)` / `allow-file(rule...)` suppression.
struct Allow {
  std::size_t line{0};  ///< annotation line (applies there + next code line)
  bool whole_file{false};
  std::vector<std::string> rules;
  std::string reason;
};

/// `// lint: <name>(payload -- reason)` state-coverage directive. Unlike
/// an Allow (which silences findings at a site), a directive changes what
/// a rule *requires*: ckpt-skip exempts one member from a completeness
/// contract. All of them print under --list-allows so the audit stays one
/// command.
struct Directive {
  std::string name;     ///< ckpt-skip
  std::string payload;  ///< text inside the parens, before any `--`
  std::string reason;   ///< text after `--` (exemptions must carry one)
  std::size_t line{0};
};

struct SourceFile {
  fs::path path;
  std::vector<std::string> raw_lines;
  std::vector<Token> tokens;  ///< comments/strings stripped
  std::vector<Allow> allows;
  std::vector<Directive> directives;
  bool in_time_domain{false};  ///< under a mac/ or sim/ directory
};

struct Finding {
  fs::path path;
  std::size_t line{0};
  std::size_t col{0};
  std::string rule;
  std::string message;
};

/// Reads and lexes one file; routes comments to the annotation parsers.
bool load(const fs::path& path, SourceFile& file);

/// True for the suffixes the tool scans.
bool has_source_extension(const fs::path& p);

/// True when `rule` is suppressed at `line` by the file's allowlist.
bool suppressed(const SourceFile& file, const std::string& rule, std::size_t line);

// ---------------------------------------------------------------------
// Symbol pass 1: names whose type involves an unordered container
// ---------------------------------------------------------------------

struct UnorderedSymbols {
  std::set<std::string> variables;  ///< members/locals of unordered type
  std::set<std::string> accessors;  ///< functions returning unordered refs
};

void collect_unordered_symbols(const SourceFile& file, UnorderedSymbols& syms);

// ---------------------------------------------------------------------
// Symbol pass 2: structural inventory (classes, functions,
// namespace-scope variables)
// ---------------------------------------------------------------------

/// One non-static data member of a class/struct.
struct MemberInfo {
  std::string name;
  std::size_t line{0};       ///< declaration line (where the name sits)
  std::size_t file_index{0};
  bool is_reference{false};  ///< wiring, not state: auto-exempt from ckpt
  bool is_pointer{false};    ///< likewise wiring (raw pointer member)
  bool is_const{false};      ///< config, rebuilt from the scenario
  bool type_is_atomic{false};
  /// Every identifier in the declaration before the name (including
  /// template arguments): links members to the nested structs they hold.
  std::set<std::string> type_tokens;
};

/// A static data member (shard-shared unless const/atomic).
struct StaticMember {
  std::string name;
  std::size_t line{0};
  std::size_t col{0};
  std::size_t file_index{0};
  bool is_const{false};  ///< const / constexpr / constinit
  bool type_is_atomic{false};
};

/// One class/struct definition. Nested types are separate entries with
/// `::`-qualified names ("EwMac::ExtraPlan"); `enclosing` links back.
struct ClassInfo {
  std::string name;       ///< qualified within the translation unit
  std::string enclosing;  ///< qualified name of the enclosing class ("" = top level)
  std::size_t line{0};    ///< line of the class-name token
  std::size_t file_index{0};
  std::vector<MemberInfo> members;        ///< non-static data members
  std::vector<StaticMember> static_members;
  std::set<std::string> declared_methods; ///< method names declared in the body

  [[nodiscard]] std::string_view unqualified() const {
    const std::size_t sep = name.rfind("::");
    return sep == std::string::npos ? std::string_view{name}
                                    : std::string_view{name}.substr(sep + 2);
  }
};

/// One function definition with a body. `qualifier` is the `A::B` prefix
/// of an out-of-line member definition (empty for free functions);
/// inline member definitions get the enclosing class as qualifier.
struct FunctionDef {
  std::string name;
  std::string qualifier;
  std::vector<std::string> param_tokens;  ///< token texts between the parens
  std::size_t line{0};        ///< line of the name token
  std::size_t body_begin{0};  ///< token index just past the opening `{`
  std::size_t body_end{0};    ///< token index of the matching `}`
  std::size_t file_index{0};

  [[nodiscard]] std::string display() const {
    return qualifier.empty() ? name : qualifier + "::" + name;
  }
};

/// Namespace-scope variable (global); function/class statics are found
/// separately by the shard-shared-mutable token scan.
struct GlobalVar {
  std::string name;
  std::size_t line{0};
  std::size_t col{0};
  std::size_t file_index{0};
  bool is_const{false};      ///< const / constexpr / constinit
  bool is_static{false};
  bool is_extern{false};
  bool is_thread_local{false};
  bool type_is_atomic{false};
};

/// The structural inventory of the whole scanned file set, merged so
/// header declarations pair with out-of-line definitions in other files.
struct Structure {
  std::vector<ClassInfo> classes;
  std::vector<FunctionDef> functions;
  std::vector<GlobalVar> globals;
};

/// Parses one file's declarations into `out`. `file_index` is the file's
/// position in the driver's scan set (used to map symbols back to files
/// for findings and annotation attachment).
void collect_structure(const SourceFile& file, std::size_t file_index, Structure& out);

/// All identifier token texts in `[begin, end)` of `file.tokens`.
std::set<std::string> identifiers_in_range(const SourceFile& file, std::size_t begin,
                                           std::size_t end);

// ---------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------

/// The five PR 5 token-pattern rules: wall-clock, unordered-iter,
/// rng-discipline, rng-root, raw-ns.
void run_lexical_rules(const SourceFile& file, const UnorderedSymbols& syms,
                       std::vector<Finding>& out);

/// The state-coverage rules (cross-file: needs every scanned file
/// plus the merged structural inventory).
void run_state_rules(const std::vector<SourceFile>& files, const Structure& structure,
                     std::vector<Finding>& out);

}  // namespace aquamac_lint
