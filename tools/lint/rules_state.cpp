// aquamac-lint state-coverage rules: completeness contracts over the
// structural inventory (see lint_core.hpp / docs/static-analysis.md).
//
// aquamac-lint: allow-file(lint-directive) -- the grammar examples in
// this file's documentation parse as live directives.
//
//   state-coverage         every non-static data member of a class that
//                          defines visit_state (or, lacking one, a
//                          for_each_field list) must be referenced in
//                          that one body — following its helpers, nested
//                          state structs included — or carry
//                          `// lint: ckpt-skip(reason)`.
//   shard-shared-mutable   mutable statics/globals that are not atomic,
//                          const or thread_local are shared across PDES
//                          shards and banned.
//   lint-directive         meta-rule: unknown directive names and
//                          skip-exemptions without a reason.

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint_core.hpp"

namespace aquamac_lint {

namespace {

const std::set<std::string>& known_directives() {
  static const std::set<std::string> kNames = {
      "ckpt-skip",
  };
  return kNames;
}

/// True when an out-of-line qualifier names class `cls` ("RelayAgent"
/// matches qualifier "RelayAgent"; "EwMac::ExtraPlan" matches "ExtraPlan").
bool qualifier_matches(const std::string& qualifier, const std::string& cls) {
  if (qualifier.empty()) return false;
  if (qualifier == cls) return true;
  if (cls.size() > qualifier.size() &&
      cls.compare(cls.size() - qualifier.size(), qualifier.size(), qualifier) == 0 &&
      cls.compare(cls.size() - qualifier.size() - 2, 2, "::") == 0) {
    return true;
  }
  if (qualifier.size() > cls.size() &&
      qualifier.compare(qualifier.size() - cls.size(), cls.size(), cls) == 0 &&
      qualifier.compare(qualifier.size() - cls.size() - 2, 2, "::") == 0) {
    return true;
  }
  return false;
}

class StateLinter {
 public:
  StateLinter(const std::vector<SourceFile>& files, const Structure& structure,
              std::vector<Finding>& out)
      : files_{files}, structure_{structure}, findings_{out} {}

  void run() {
    check_directives();
    rule_state_coverage();
    rule_shard_shared_mutable();
  }

 private:
  void add(std::size_t file_index, std::size_t line, std::size_t col,
           const std::string& rule, std::string message) {
    const SourceFile& file = files_[file_index];
    if (suppressed(file, rule, line)) return;
    findings_.push_back(Finding{file.path, line, col == 0 ? 1 : col, rule,
                                std::move(message)});
  }

  /// The skip directive (of `name`) attached to a member declared at
  /// `line` in `file_index`: same line (trailing comment) or a stand-alone
  /// comment on the line immediately above.
  [[nodiscard]] const Directive* member_skip(const std::string& name,
                                             std::size_t file_index,
                                             std::size_t line) const {
    const SourceFile& file = files_[file_index];
    for (const Directive& d : file.directives) {
      if (d.name != name) continue;
      if (d.line == line) return &d;
      // A directive on the line above counts only when it stands alone:
      // a trailing one belongs to the member declared on its own line.
      if (d.line + 1 == line && d.line <= file.raw_lines.size()) {
        const std::string& text = file.raw_lines[d.line - 1];
        const std::size_t code = text.find_first_not_of(" \t");
        if (code != std::string::npos && text.compare(code, 2, "//") == 0) return &d;
      }
    }
    return nullptr;
  }

  /// Identifiers in the bodies of every definition of `method` on `cls`.
  [[nodiscard]] std::set<std::string> method_body_identifiers(
      const ClassInfo& cls, const std::string& method, bool& found_def) const {
    std::set<std::string> ids;
    found_def = false;
    for (const FunctionDef& fn : structure_.functions) {
      if (fn.name != method) continue;
      if (!qualifier_matches(fn.qualifier, cls.name)) continue;
      found_def = true;
      const std::set<std::string> body =
          identifiers_in_range(files_[fn.file_index], fn.body_begin, fn.body_end);
      ids.insert(body.begin(), body.end());
    }
    return ids;
  }

  // ----- lint-directive (meta) ----------------------------------------
  void check_directives() {
    for (std::size_t fi = 0; fi < files_.size(); ++fi) {
      for (const Directive& d : files_[fi].directives) {
        if (!known_directives().contains(d.name)) {
          add(fi, d.line, 1, "lint-directive",
              "unknown lint directive '" + d.name + "' (known: ckpt-skip)");
          continue;
        }
        // ckpt-skip carries the reason as the payload itself when no `--`
        // is present; either field may satisfy the requirement.
        if (d.reason.empty() && d.payload.empty()) {
          add(fi, d.line, 1, "lint-directive",
              "'" + d.name + "' exemption without a reason: every skip must say why "
              "the member is safe to leave out");
        }
      }
    }
  }

  /// The identifiers of the one state body of `cls`: its visit_state
  /// definitions (or, lacking one, its for_each_field list), expanded
  /// transitively through helpers it names — functions taking a
  /// StateArchive and members of `cls` itself. Another class's
  /// visit_state (a base-class call) is its own contract, not a helper.
  [[nodiscard]] std::set<std::string> state_body_identifiers(const ClassInfo& cls,
                                                             const std::string& method,
                                                             bool& found_def) const {
    std::set<std::string> ids = method_body_identifiers(cls, method, found_def);
    std::set<const FunctionDef*> used;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const FunctionDef& fn : structure_.functions) {
        if (used.contains(&fn) || fn.name == "visit_state" || !ids.contains(fn.name)) continue;
        const bool takes_archive =
            std::find(fn.param_tokens.begin(), fn.param_tokens.end(), "StateArchive") !=
            fn.param_tokens.end();
        if (!takes_archive && !qualifier_matches(fn.qualifier, cls.name)) continue;
        used.insert(&fn);
        grew = true;
        const std::set<std::string> body =
            identifiers_in_range(files_[fn.file_index], fn.body_begin, fn.body_end);
        ids.insert(body.begin(), body.end());
      }
    }
    return ids;
  }

  // ----- state-coverage -----------------------------------------------
  void rule_state_coverage() {
    for (const ClassInfo& cls : structure_.classes) {
      const std::string method = cls.declared_methods.contains("visit_state") ? "visit_state"
                                 : cls.declared_methods.contains("for_each_field")
                                     ? "for_each_field"
                                     : "";
      if (method.empty()) continue;
      bool found_def = false;
      const std::set<std::string> ids = state_body_identifiers(cls, method, found_def);
      if (!found_def) continue;  // definition outside the scan set

      // The members under contract: the class's own, plus members of
      // nested state structs reachable through non-exempt member types.
      struct Checked {
        const MemberInfo* member;
        std::string owner;  ///< the class the member belongs to
      };
      std::vector<Checked> to_check;
      std::set<std::string> frontier;  // unqualified nested-type names in use
      for (const MemberInfo& m : cls.members) {
        to_check.push_back(Checked{&m, cls.name});
        frontier.insert(m.type_tokens.begin(), m.type_tokens.end());
      }
      // Fixpoint over nested structs held by value in checked members.
      bool grew = true;
      std::set<std::string> included;
      while (grew) {
        grew = false;
        for (const ClassInfo& nested : structure_.classes) {
          if (nested.enclosing != cls.name &&
              nested.enclosing.rfind(cls.name + "::", 0) != 0) {
            continue;
          }
          if (included.contains(nested.name)) continue;
          if (nested.declared_methods.contains("visit_state") ||
              nested.declared_methods.contains("for_each_field")) {
            continue;  // checked as its own contract
          }
          if (!frontier.contains(std::string(nested.unqualified()))) continue;
          included.insert(nested.name);
          grew = true;
          for (const MemberInfo& m : nested.members) {
            to_check.push_back(Checked{&m, nested.name});
            frontier.insert(m.type_tokens.begin(), m.type_tokens.end());
          }
        }
      }

      for (const Checked& c : to_check) {
        const MemberInfo& m = *c.member;
        if (m.is_reference || m.is_pointer || m.is_const) continue;  // wiring/config
        if (member_skip("ckpt-skip", m.file_index, m.line) != nullptr) continue;
        if (ids.contains(m.name)) continue;
        add(m.file_index, m.line, 1, "state-coverage",
            "member '" + m.name + "' of '" + c.owner + "' is not referenced in " + cls.name +
                "::" + method + "; visit it or annotate `// lint: ckpt-skip(reason)` "
                "(a forgotten member silently breaks resume bit-identity or drops out of "
                "merges and reports)");
      }
    }
  }

  // ----- shard-shared-mutable -----------------------------------------
  void rule_shard_shared_mutable() {
    for (const GlobalVar& g : structure_.globals) {
      if (g.is_const || g.type_is_atomic || g.is_thread_local) continue;
      add(g.file_index, g.line, g.col, "shard-shared-mutable",
          "mutable namespace-scope variable '" + g.name +
              "' is shared across PDES shards; make it const, std::atomic, or "
              "thread_local (the sanctioned per-shard seam is "
              "Simulator::ExecContext)");
    }
    for (const ClassInfo& cls : structure_.classes) {
      for (const StaticMember& sm : cls.static_members) {
        if (sm.is_const || sm.type_is_atomic) continue;
        add(sm.file_index, sm.line, sm.col, "shard-shared-mutable",
            "mutable static data member '" + cls.name + "::" + sm.name +
                "' is shared across PDES shards; make it const/atomic or move it "
                "into per-run state");
      }
    }
    // Function-local statics: a token scan inside each body.
    static const std::set<std::string> kSafeQualifiers = {
        "const", "constexpr", "constinit", "atomic", "thread_local",
    };
    for (const FunctionDef& fn : structure_.functions) {
      const SourceFile& file = files_[fn.file_index];
      for (std::size_t i = fn.body_begin; i < fn.body_end && i < file.tokens.size();
           ++i) {
        if (!file.tokens[i].is_ident || file.tokens[i].text != "static") continue;
        // Scan the declaration statement for a safety qualifier; the
        // declared name is the last identifier before the initializer.
        bool safe = false;
        std::string var_name;
        bool before_init = true;
        int depth = 0;
        std::size_t j = i + 1;
        for (; j < fn.body_end; ++j) {
          const std::string& s = file.tokens[j].text;
          if (s == "(" || s == "{" || s == "[") {
            if (depth == 0 && s == "{") before_init = false;
            ++depth;
          } else if (s == ")" || s == "}" || s == "]") {
            --depth;
          } else if (s == ";" && depth == 0) {
            break;
          } else if (s == "=" && depth == 0) {
            before_init = false;
          }
          if (depth == 0 && file.tokens[j].is_ident) {
            if (kSafeQualifiers.contains(s)) safe = true;
            else if (before_init) var_name = s;
          }
        }
        if (safe) continue;
        add(fn.file_index, file.tokens[i].line, file.tokens[i].col,
            "shard-shared-mutable",
            "mutable function-local static '" + var_name + "' in '" + fn.display() +
                "' is shared across PDES shards; make it const/constexpr/atomic/"
                "thread_local or hoist it into per-run state");
      }
    }
  }

  const std::vector<SourceFile>& files_;
  const Structure& structure_;
  std::vector<Finding>& findings_;
};

}  // namespace

void run_state_rules(const std::vector<SourceFile>& files, const Structure& structure,
                     std::vector<Finding>& out) {
  StateLinter{files, structure, out}.run();
}

}  // namespace aquamac_lint
