import pytest

from symlog.corpus import corpus_config, corpus_registry


@pytest.fixture
def registry():
    return corpus_registry()


@pytest.fixture
def config():
    return corpus_config()
