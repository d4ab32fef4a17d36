#include "autograd/tape.h"

namespace embsr {
namespace ag {

namespace {
thread_local Tape* t_active_tape = nullptr;
}  // namespace

Tape::Tape() : outer_(t_active_tape) { t_active_tape = this; }

Tape::~Tape() { t_active_tape = outer_; }

Tape* Tape::Active() { return t_active_tape; }

void Tape::Record(const std::shared_ptr<Node>& node) {
  if (t_active_tape != nullptr) t_active_tape->nodes_.push_back(node);
}

}  // namespace ag
}  // namespace embsr
