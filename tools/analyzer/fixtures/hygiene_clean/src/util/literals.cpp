namespace fx {

// A raw string spanning lines hides what it contains.
const char* doc = R"(
std::rand() and srand(0) and time(nullptr) and printf("x")
)";

// The delimiter guards the inner )": the literal ends at )x".
const char* guarded = R"x( srand(0) )" std::rand() )x";

// Digit separators are not character literals (an odd count would leave
// one unterminated).
const long long big = 1'000'000'000;
const char* after_big = "std::rand()";

// Comment markers inside strings are inert.
const char* slashes = "//";
const char* star = "/*";
int after_markers = 0;

// An apostrophe in a comment doesn't open a literal.
int after_comment = 1;

// Escaped quotes stay inside the string.
const char* escaped = "a\"b std::rand() std::cout";

}  // namespace fx
