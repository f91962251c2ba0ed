import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"


def corpus_text(name):
    return (CORPUS / name).read_text()


def parse_system(text):
    # Imported on use: collecting bench/test_checks.py imports the engine
    # afresh, and a conftest loads before that, so a module-level import
    # would hand the fixtures classes from a discarded copy of the engine.
    from icrs import parse_system

    return parse_system(text)


@pytest.fixture(scope="session")
def dup_system():
    """f([x]Z(x),Z') -> Z(g(Z(Z'))) plus a constant a."""
    return parse_system(corpus_text("nested_duplication.crs"))


@pytest.fixture(scope="session")
def growth_system():
    """f([x]Z(x)) -> Z(Z(a)) and g(Z) -> h(Z)."""
    return parse_system(corpus_text("collapse_growth.crs"))


@pytest.fixture(scope="session")
def pair_system():
    """f(Z) -> g(Z) and a -> g(a)."""
    return parse_system(corpus_text("outermost_pair.crs"))


@pytest.fixture(scope="session")
def spine_system():
    """f(X,Y) -> g(X,f(X,Y)), a -> b, c -> c."""
    return parse_system(corpus_text("spine_growth.crs"))


@pytest.fixture(scope="session")
def map_system():
    return parse_system(corpus_text("map_streams.crs"))


@pytest.fixture(scope="session")
def beta_system():
    return parse_system(corpus_text("lambda_beta.crs"))


@pytest.fixture(scope="session")
def collapse_system():
    """The collapsing rule f(Z) -> Z."""
    return parse_system(corpus_text("collapse_loop.crs"))
