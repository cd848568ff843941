// Name-based model factory so tools and scripts can build any model
// variant from strings ("threshold", T=4) without compiling against each
// class, plus the introspection surface (model_specs) that CLIs and the
// experiment runner derive their parameter handling from. Parameter keys
// follow the paper's symbols; the `service` key carries a distribution
// spec string (see core::parse_service) instead of a number.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/model.hpp"

namespace lsm::core {

/// One model parameter value: a number for the classic knobs (T, S, r,
/// ...) or a text spec for distribution-kind parameters (`service`).
/// Implicitly constructible from arithmetic types and strings so
/// `{{"T", 4}, {"service", "hyperexp:4"}}` initializer lists read
/// naturally.
struct ParamValue {
  double number = 0.0;
  std::string text;
  bool is_text = false;

  ParamValue() = default;
  template <typename T>
    requires std::is_arithmetic_v<T>
  ParamValue(T v) : number(static_cast<double>(v)) {}  // NOLINT
  ParamValue(std::string s) : text(std::move(s)), is_text(true) {}  // NOLINT
  ParamValue(const char* s) : text(s), is_text(true) {}             // NOLINT

  friend bool operator==(const ParamValue& a, const ParamValue& b) {
    return a.is_text == b.is_text &&
           (a.is_text ? a.text == b.text : a.number == b.number);
  }
};

/// Extra parameters by short name. Accepted keys, defaults and docs are
/// per model: see model_specs(). make_model rejects keys the named model
/// does not accept.
using ModelParams = std::map<std::string, ParamValue>;

/// One accepted parameter of a model: key, default used when the key is
/// absent, and a one-line description for --list style help. Number
/// parameters default to `fallback`; Distribution parameters carry their
/// default spec string in `fallback_text`.
struct ParamSpec {
  enum class Kind { Number, Distribution };

  ParamSpec(std::string key_in, double fallback_in, std::string doc_in,
            Kind kind_in = Kind::Number, std::string fallback_text_in = "")
      : key(std::move(key_in)),
        fallback(fallback_in),
        doc(std::move(doc_in)),
        kind(kind_in),
        fallback_text(std::move(fallback_text_in)) {}

  std::string key;
  double fallback = 0.0;
  std::string doc;
  Kind kind = Kind::Number;
  std::string fallback_text;
};

/// Introspection record for one registered model.
struct ModelSpec {
  std::string name;
  std::string description;
  std::vector<ParamSpec> params;

  [[nodiscard]] bool accepts(const std::string& key) const;
  /// The spec of parameter `key`; throws util::Error when unknown.
  [[nodiscard]] const ParamSpec& param(const std::string& key) const;
  /// The numeric default for `key`; throws util::Error when the key is
  /// unknown.
  [[nodiscard]] double fallback(const std::string& key) const;
};

/// Every registered model with its accepted parameters, in presentation
/// order. The single source of truth model_names()/make_model dispatch on.
[[nodiscard]] const std::vector<ModelSpec>& model_specs();

/// Spec for one model name; throws util::Error for an unknown name.
[[nodiscard]] const ModelSpec& model_spec(const std::string& name);

/// Builds a model by name. Known names (see model_names()):
///   no-stealing, simple, threshold, preemptive, repeated, multi-choice,
///   multi-steal, composed, erlang, transfer, staged-transfer, rebalance,
///   heterogeneous, spawning, sharing
/// Models declaring a `service` parameter accept a distribution spec
/// (`exp | erlang:k | hyperexp:scv | coxian:k,scv | heavytail:scv[,k]`);
/// exponential service dispatches to the classic (scalar-state) classes,
/// anything else to the phase-type generalizations.
/// The stealing families preemptive, repeated, multi-choice and multi-steal
/// are presets of ComposedWS that vary one of its dimensions.
/// Throws util::Error for an unknown name or a parameter key the model
/// does not accept, std::invalid_argument for an out-of-range value or an
/// invalid combination (a constructor precondition, rethrown with the
/// model name so callers can tell bad input from a library bug).
[[nodiscard]] std::unique_ptr<MeanFieldModel> make_model(
    const std::string& name, double lambda, const ModelParams& params = {});

/// All names make_model accepts, in presentation order.
[[nodiscard]] const std::vector<std::string>& model_names();

}  // namespace lsm::core
