#include "harness.hpp"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index), values.end());
    return values[index];
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

void RunResult::check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0;
}

std::string filesystem_type(const std::string& path) {
    struct statfs fs {};
    if (::statfs(path.c_str(), &fs) != 0) return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
        case 0xEF53UL: return "ext4";
        case 0x01021994UL: return "tmpfs";
        case 0x794C7630UL: return "overlayfs";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        default: {
            std::ostringstream hex;
            hex << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
            return hex.str();
        }
    }
}

}  // namespace perfbench
