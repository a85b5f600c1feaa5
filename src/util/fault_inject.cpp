#include "util/fault_inject.hpp"
#include "util/mt64.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string_view>
#include <thread>

namespace ftsp::util::fault {

namespace {

/// Trigger kinds for one armed rule. kNth fires exactly once, on the
/// Nth hit of the site; kProb draws per hit; kAlways fires every hit.
enum class Trigger { kAlways, kNth, kProb };

struct Rule {
  Action action;
  Trigger trigger = Trigger::kAlways;
  std::uint64_t nth = 0;     // 1-based, Trigger::kNth
  double probability = 0.0;  // Trigger::kProb
};

struct SiteState {
  Rule rule;
  std::uint64_t hits = 0;
};

struct Plan {
  explicit Plan(std::uint64_t seed) : rng(seed) {}

  std::map<std::string, SiteState, std::less<>> sites;
  // ftsp-lint: allow(det-unseeded-rng) member decl; the constructor seeds it from FTSP_FAULTS_SEED
  util::Mt64 rng;
};

[[noreturn]] void parse_fail(const std::string& plan,
                             const std::string& why) {
  throw std::runtime_error("FTSP_FAULTS: " + why + " in plan \"" + plan +
                           "\"");
}

std::uint64_t parse_uint(const std::string& plan, const std::string& text,
                         const char* what) {
  if (text.empty()) {
    parse_fail(plan, std::string("empty ") + what);
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      parse_fail(plan, std::string("non-numeric ") + what + " \"" + text +
                           "\"");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Parses one plan string into armed sites. First rule per site wins;
/// duplicates are rejected loudly so a typo'd schedule can't silently
/// drop half its faults.
Plan parse_plan(const std::string& plan, std::uint64_t seed) {
  Plan parsed(seed);
  std::size_t pos = 0;
  while (pos < plan.size()) {
    std::size_t end = plan.find(',', pos);
    if (end == std::string::npos) {
      end = plan.size();
    }
    const std::string entry = plan.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      continue;
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      parse_fail(plan, "missing site name in \"" + entry + "\"");
    }
    const std::string site = entry.substr(0, colon);
    std::string action_text = entry.substr(colon + 1);
    Rule rule;
    const std::size_t at = action_text.find('@');
    if (at != std::string::npos) {
      const std::string trigger = action_text.substr(at + 1);
      action_text.resize(at);
      if (trigger.empty()) {
        parse_fail(plan, "empty trigger in \"" + entry + "\"");
      }
      if (trigger[0] == 'p') {
        rule.trigger = Trigger::kProb;
        char* parse_end = nullptr;
        rule.probability = std::strtod(trigger.c_str() + 1, &parse_end);
        if (parse_end == nullptr || *parse_end != '\0' ||
            rule.probability < 0.0 || rule.probability > 1.0) {
          parse_fail(plan, "bad probability in \"" + entry + "\"");
        }
      } else {
        rule.trigger = Trigger::kNth;
        rule.nth = parse_uint(plan, trigger, "trigger");
        if (rule.nth == 0) {
          parse_fail(plan, "trigger @0 never fires in \"" + entry + "\"");
        }
      }
    }
    if (action_text == "fail") {
      rule.action.fail = true;
    } else if (action_text.rfind("delay=", 0) == 0) {
      std::string ms = action_text.substr(6);
      if (ms.size() < 3 || ms.substr(ms.size() - 2) != "ms") {
        parse_fail(plan, "delay needs a ms suffix in \"" + entry + "\"");
      }
      ms.resize(ms.size() - 2);
      rule.action.delay =
          std::chrono::milliseconds(parse_uint(plan, ms, "delay"));
    } else {
      parse_fail(plan, "unknown action \"" + action_text + "\"");
    }
    if (!parsed.sites.emplace(site, SiteState{rule, 0}).second) {
      parse_fail(plan, "duplicate rule for site \"" + site + "\"");
    }
  }
  return parsed;
}

std::uint64_t env_seed() {
  const char* env = std::getenv("FTSP_FAULTS_SEED");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  return std::strtoull(env, nullptr, 10);
}

/// -1 = no override (environment decides), 0 = forced off (empty test
/// plan), 1 = test plan installed. Mirrors the FTSP_OBS gate: `hit` is
/// one relaxed load plus one getenv-backed static when nothing is
/// armed.
std::atomic<int> g_plan_override{-1};

std::mutex g_plan_mutex;
std::unique_ptr<Plan> g_plan;  // guarded by g_plan_mutex

const char* env_plan_text() {
  static const char* value = [] {
    const char* env = std::getenv("FTSP_FAULTS");
    return (env != nullptr && *env != '\0') ? env : nullptr;
  }();
  return value;
}

/// The armed plan, or nullptr when injection is off. Parses the
/// environment plan on first armed use (holding the mutex).
Plan* active_plan_locked() {
  if (g_plan == nullptr) {
    const char* env = env_plan_text();
    if (env == nullptr) {
      return nullptr;
    }
    g_plan = std::make_unique<Plan>(parse_plan(env, env_seed()));
  }
  return g_plan.get();
}

}  // namespace

bool enabled() {
  const int override_value = g_plan_override.load(std::memory_order_relaxed);
  if (override_value >= 0) {
    return override_value != 0;
  }
  return env_plan_text() != nullptr;
}

Action hit(const char* site) {
  if (!enabled()) {
    return Action{};
  }
  Action fired;
  {
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    Plan* plan = active_plan_locked();
    if (plan == nullptr) {
      return Action{};
    }
    const auto it = plan->sites.find(std::string_view(site));
    if (it == plan->sites.end()) {
      return Action{};
    }
    SiteState& state = it->second;
    ++state.hits;
    bool fire = false;
    switch (state.rule.trigger) {
      case Trigger::kAlways:
        fire = true;
        break;
      case Trigger::kNth:
        fire = state.hits == state.rule.nth;
        break;
      case Trigger::kProb: {
        std::uniform_real_distribution<double> draw(0.0, 1.0);
        fire = draw(plan->rng) < state.rule.probability;
        break;
      }
    }
    if (fire) {
      fired = state.rule.action;
    }
  }
  if (fired.delay.count() > 0) {
    std::this_thread::sleep_for(fired.delay);
  }
  return fired;
}

bool should_fail(const char* site) { return hit(site).fail; }

void maybe_throw(const char* site, const char* what) {
  if (should_fail(site)) {
    throw InjectedFault(std::string(what) + ": injected fault at " + site);
  }
}

void set_plan(const std::string& plan) {
  // Parse outside the lock so a malformed plan leaves the old one armed.
  std::unique_ptr<Plan> parsed;
  if (!plan.empty()) {
    parsed = std::make_unique<Plan>(parse_plan(plan, env_seed()));
  }
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  g_plan = std::move(parsed);
  g_plan_override.store(g_plan != nullptr ? 1 : 0,
                        std::memory_order_relaxed);
}

void clear_plan() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  g_plan.reset();
  g_plan_override.store(-1, std::memory_order_relaxed);
}

std::uint64_t hit_count(const char* site) {
  if (!enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  Plan* plan = active_plan_locked();
  if (plan == nullptr) {
    return 0;
  }
  const auto it = plan->sites.find(std::string_view(site));
  return it == plan->sites.end() ? 0 : it->second.hits;
}

}  // namespace ftsp::util::fault
