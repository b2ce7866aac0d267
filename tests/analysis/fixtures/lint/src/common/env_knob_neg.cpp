// Negative fixture for the env-knob rule: getenv may be named in comments,
// such as "std::getenv(name)", and in strings.
namespace vnfr::fixture {

inline const char* banned_call() { return "std::getenv(\"VNFR_FAILURE_MODE\")"; }

inline int getenv_calls() { return 0; }

}  // namespace vnfr::fixture
