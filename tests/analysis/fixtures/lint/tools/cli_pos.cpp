// Positive fixture for the faults-boundary rule over tools/*.cpp: the CLI
// links the production libraries only, so it must not include the harness.
// The other lint rules do not apply to tools/.
#include "serve/admission_controller.hpp"
#include "serve/faults/disk_fault_study.hpp"  // expect: faults-boundary

int main() { return 0; }
