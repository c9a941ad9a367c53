"""Every corpus command writes the bytes and returns the code it was
recorded with (``byte_corpus.py`` lists them and rewrites the corpus)."""

import json

import byte_corpus


def test_outputs_match_the_byte_corpus():
    with open(byte_corpus.CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    here = byte_corpus.environment()
    assert corpus["environment"] == here, (
        f"the corpus was written under {corpus['environment']}, this run "
        f"is under {here}; its digests do not carry across environments")
    assert set(corpus["entries"]) == set(byte_corpus.commands())
    mismatched = []
    for name, *streams in byte_corpus.outputs():
        got = byte_corpus.digest(*streams)
        want = corpus["entries"][name]
        mismatched += [f"{name}: {key}" for key in byte_corpus.STREAMS
                       if got[key] != want[key]]
    assert not mismatched, mismatched
