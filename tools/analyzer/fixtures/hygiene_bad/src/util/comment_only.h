// A header with no tokens at all still needs #pragma once.
