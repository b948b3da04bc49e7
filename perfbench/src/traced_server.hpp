#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Entry point of `perfbench serve` (see traced_server.cpp). `args` are
/// the arguments after the mode word. Returns the process exit code.
int serve_traced(const std::vector<std::string>& args);

}  // namespace perfbench
