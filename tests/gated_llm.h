// A model decorator that holds every call for one input until Release(), so
// a test can keep serve workers busy, and requests in flight, for as long as
// it needs; other inputs pass straight through. Shared by the serve
// concurrency tests and the net loopback tests.
#ifndef LLMDM_TESTS_GATED_LLM_H_
#define LLMDM_TESTS_GATED_LLM_H_

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "llm/model.h"

namespace llmdm::test {

class GatedLlm : public llm::LlmModel {
 public:
  GatedLlm(std::shared_ptr<llm::LlmModel> inner, std::string held_input)
      : inner_(std::move(inner)), held_input_(std::move(held_input)) {}

  const llm::ModelSpec& spec() const override { return inner_->spec(); }

  common::Result<llm::Completion> Complete(const llm::Prompt& prompt) override {
    if (prompt.input == held_input_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return inner_->Complete(prompt);
  }

  /// Returns once `calls` calls for the held input have entered the model.
  void AwaitHeld(size_t calls = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, calls] { return held_ >= calls; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::shared_ptr<llm::LlmModel> inner_;
  std::string held_input_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t held_ = 0;
  bool released_ = false;
};

}  // namespace llmdm::test

#endif  // LLMDM_TESTS_GATED_LLM_H_
