// A comment is not the first token; the include below is.
#include <vector>

int no_pragma();
