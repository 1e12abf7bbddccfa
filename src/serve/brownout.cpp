#include "serve/brownout.hpp"

#include "util/error.hpp"

namespace vedliot::serve {

BrownoutLadder::BrownoutLadder(BrownoutConfig config, std::vector<BrownoutStep> steps)
    : cfg_(config), steps_(std::move(steps)) {
  VEDLIOT_CHECK(cfg_.low_watermark >= 0, "low watermark must be >= 0");
  VEDLIOT_CHECK(cfg_.high_watermark > cfg_.low_watermark,
                "high watermark must exceed low watermark");
  VEDLIOT_CHECK(cfg_.step_down_after >= 1, "step-down streak must be >= 1");
  VEDLIOT_CHECK(cfg_.step_up_after >= 1, "step-up streak must be >= 1");
  VEDLIOT_CHECK(!steps_.empty(), "degradation ladder needs at least one rung");
}

const BrownoutStep& BrownoutLadder::current() const {
  return steps_[static_cast<std::size_t>(level_)];
}

int BrownoutLadder::observe(double load) {
  if (load >= cfg_.high_watermark) {
    calm_streak_ = 0;
    ++hot_streak_;
    if (hot_streak_ >= cfg_.step_down_after && level_ + 1 < static_cast<int>(steps_.size())) {
      hot_streak_ = 0;
      ++level_;
      return +1;
    }
    return 0;
  }
  if (load <= cfg_.low_watermark) {
    hot_streak_ = 0;
    ++calm_streak_;
    if (calm_streak_ >= cfg_.step_up_after && level_ > 0) {
      calm_streak_ = 0;
      --level_;
      return -1;
    }
    return 0;
  }
  // Between the watermarks: hold the rung, reset both streaks so a later
  // excursion must re-earn its full streak.
  hot_streak_ = 0;
  calm_streak_ = 0;
  return 0;
}

}  // namespace vedliot::serve
