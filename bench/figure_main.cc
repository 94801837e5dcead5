/**
 * @file
 * The main of every figure binary in bench/figures.cc: CMake compiles
 * it once per figure with HYPERSIO_FIGURE set to that entry's id.
 */

namespace hypersio::bench
{
int runFigure(const char *id, int argc, char **argv);
}

int
main(int argc, char **argv)
{
    return hypersio::bench::runFigure(HYPERSIO_FIGURE, argc, argv);
}
