import base64
import json
import math
import struct

import numpy as np
import pytest

from minis2st.corpus import (
    Manifest,
    ParseError,
    SpeechFrames,
    ToyCorpusConfig,
    UtterancePair,
    check_record_id,
    corpus_stats,
    cosine_similarity,
    encode_frames,
    filter_by_similarity,
    generate_toy_corpus,
    read_frames,
    read_manifest,
    same_speaker_prompts,
    toy_symbol_map,
    write_frames,
    write_manifest,
)


def small_cfg(**kw):
    base = dict(src_vocab=5, tgt_vocab=6, len_min=2, len_max=4, pairs=12,
                speakers=3, feat_dim=4, frames_per_symbol=3)
    base.update(kw)
    return ToyCorpusConfig(**base)


def test_generator_is_deterministic_per_seed():
    cfg = small_cfg()
    a = generate_toy_corpus(cfg, 11)
    b = generate_toy_corpus(cfg, 11)
    c = generate_toy_corpus(cfg, 12)
    assert a == b
    assert a != c


def test_symbol_map_is_injective_and_applied_reversed():
    cfg = small_cfg()
    m = generate_toy_corpus(cfg, 3)
    sym_map = toy_symbol_map(cfg, 3)
    assert len(set(sym_map)) == len(sym_map) == cfg.src_vocab
    assert all(0 <= t < cfg.tgt_vocab for t in sym_map)
    for r in m:
        assert r.tgt_text == [sym_map[s] for s in reversed(r.src_text)]


def test_rendered_frame_shapes_follow_text_lengths():
    cfg = small_cfg()
    for r in generate_toy_corpus(cfg, 0):
        assert r.src_frames.frames.shape == (len(r.src_text) * cfg.frames_per_symbol,
                                             cfg.feat_dim)
        assert r.tgt_frames.frames.shape == (len(r.tgt_text) * cfg.frames_per_symbol,
                                             cfg.feat_dim)
        assert cfg.len_min <= len(r.src_text) <= cfg.len_max


def test_speaker_offset_shifts_target_frames_only():
    quiet = small_cfg(noise_std=0.0, pairs=40)
    m = generate_toy_corpus(quiet, 5)
    by_spk = {}
    for r in m:
        # same target symbol rendered by different speakers must differ by the
        # constant per-speaker offset; source side carries no offset
        sym = r.tgt_text[0]
        by_spk.setdefault(sym, {})[r.speaker] = r.tgt_frames.frames[0]
    checked = 0
    for sym, rows in by_spk.items():
        speakers = sorted(rows)
        for a, b in zip(speakers, speakers[1:]):
            diff = rows[a] - rows[b]
            assert np.abs(diff).max() > 1e-9
            checked += 1
    assert checked > 0


def test_config_validation_rejects_bad_settings():
    with pytest.raises(ValueError):
        generate_toy_corpus(small_cfg(src_vocab=0), 0)
    with pytest.raises(ValueError):
        generate_toy_corpus(small_cfg(src_vocab=6, tgt_vocab=5), 0)
    with pytest.raises(ValueError):
        generate_toy_corpus(small_cfg(len_min=5, len_max=2), 0)
    with pytest.raises(ValueError):
        generate_toy_corpus(small_cfg(pairs=-1), 0)


def test_same_speaker_prompts_match_the_per_record_search():
    # the quadratic form: each record's position found by a search of its
    # speaker's ids (a repeated id maps by its first position)
    def reference(records):
        out = {}
        for r in records:
            group = [g for g in records if g.speaker == r.speaker]
            ids = [g.id for g in group]
            out[r.id] = group[(ids.index(r.id) + 1) % len(group)]
        return out

    records = list(generate_toy_corpus(small_cfg(pairs=23, speakers=4), 5))
    lone = UtterancePair("lone", [0], [0], records[0].src_frames, records[0].tgt_frames,
                         "nobody", 1.0)
    for case in (records, records + [lone], records + records[:3]):
        got = same_speaker_prompts(case)
        want = reference(case)
        assert list(got) == list(want)
        assert all(got[k] is want[k] for k in want)
    assert same_speaker_prompts(records + [lone])["lone"] is lone


def test_cosine_similarity_hand_values():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine_similarity([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)
    assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)


def test_filter_by_similarity_threshold_modes():
    cfg = small_cfg(pairs=6)
    m = generate_toy_corpus(cfg, 0)
    for i, r in enumerate(m.records):
        r.similarity = i / 10.0  # 0.0 .. 0.5
    kept = filter_by_similarity(m, threshold=0.3)
    assert [r.similarity for r in kept] == [0.4, 0.5]
    kept_inc = filter_by_similarity(m, threshold=0.3, inclusive=True)
    assert [r.similarity for r in kept_inc] == [0.3, 0.4, 0.5]
    assert len(filter_by_similarity(m, threshold=1.1)) == 0


def test_frames_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    sf = SpeechFrames(rng.normal(size=(9, 4)))
    p = tmp_path / "x.ds2f"
    write_frames(p, sf)
    back = read_frames(p)
    assert back == sf
    assert back.frames.dtype == np.float64


def test_frames_reader_rejects_corruption(tmp_path):
    p = tmp_path / "x.ds2f"
    write_frames(p, SpeechFrames(np.zeros((3, 2))))
    raw = p.read_bytes()
    (tmp_path / "magic.ds2f").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ParseError):
        read_frames(tmp_path / "magic.ds2f")
    for name, content in (
        ("short.ds2f", raw[:-8]),
        ("header.ds2f", raw[:10]),  # ends inside the 12-byte header
        ("trailing.ds2f", raw + b"\x00"),
    ):
        (tmp_path / name).write_bytes(content)
        with pytest.raises(ParseError):
            read_frames(tmp_path / name)


def test_manifest_roundtrip_preserves_everything(tmp_path):
    m = generate_toy_corpus(small_cfg(), 4)
    # values a decimal text round trip could change: -0.0, a subnormal, extremes
    m.records[0].src_frames.frames[0] = [-0.0, 5e-324, np.finfo(float).max, np.nextafter(1, 2)]
    path = tmp_path / "corpus.jsonl"
    write_manifest(m, path)
    back = read_manifest(path)
    assert back == m
    assert back.metadata == m.metadata
    for got, want in zip(back, m):
        for key in ("src_frames", "tgt_frames"):
            assert getattr(got, key).frames.tobytes() == getattr(want, key).frames.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]  # the frames are inside


def test_manifest_reader_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_manifest(tmp_path / "absent.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    with pytest.raises(ParseError):
        read_manifest(bad)
    for name, text in (
        ("incomplete.jsonl", '{"manifest": {}}\n{"id": "a", "speaker": "s"}\n'),
        ("list_first.jsonl", '[1, 2]\n'),  # valid JSON, not an object
        ("list_later.jsonl", '{"manifest": {}}\n"record"\n'),
        ("meta_list.jsonl", '{"manifest": []}\n'),
    ):
        (tmp_path / name).write_text(text)
        with pytest.raises(ParseError):
            read_manifest(tmp_path / name)

    # every field has one JSON type; the frames need not decode to see that
    record = {"id": "a", "speaker": "s", "similarity": 1.0, "src_text": [1],
              "tgt_text": [2], "src_frames": "a.src.ds2f", "tgt_frames": "a.tgt.ds2f"}
    typed = tmp_path / "typed.jsonl"
    for key, value in (("id", 3), ("speaker", None), ("src_frames", 5),
                       ("tgt_frames", ["a.tgt.ds2f"]), ("src_text", "12"),
                       ("tgt_text", [2.0]), ("tgt_text", [True]),
                       ("similarity", "high"), ("similarity", [1.0]),
                       # json reads the NaN and Infinity tokens, and ints of any size
                       ("similarity", math.nan), ("similarity", math.inf),
                       ("similarity", -math.inf), ("similarity", 10 ** 400)):
        typed.write_text('{"manifest": {}}\n' + json.dumps({**record, key: value}) + "\n")
        with pytest.raises(ParseError, match=f"typed.jsonl:2: field '{key}'"):
            read_manifest(typed)

    # metadata the readers use as sizes and rates must be ints >= 1
    for key, value in (("frame_rate", None), ("frame_rate", "50"), ("frame_rate", True),
                       ("frame_rate", 0), ("feat_dim", 8.0), ("tgt_vocab", -1),
                       ("frames_per_symbol", None)):
        typed.write_text(json.dumps({"manifest": {key: value}}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=f"typed.jsonl:1: metadata '{key}'"):
            read_manifest(typed)

    # frames are base64 of a well-formed frame file as wide as metadata 'feat_dim'
    def b64(data: bytes) -> str:
        return base64.b64encode(data).decode("ascii")

    narrow, wide = (encode_frames(SpeechFrames(np.zeros((3, f)))) for f in (4, 5))
    record = {**record, "src_frames": b64(narrow), "tgt_frames": b64(narrow)}
    for meta, key, value, message in (
        ({}, "src_frames", "a.src.ds2f", "not base64"),  # a manifest of an earlier build
        ({}, "tgt_frames", "RFMyRg\u00e9", "not base64"),
        ({}, "src_frames", b64(b"XXXX" + narrow[4:]), "bad magic"),
        ({}, "tgt_frames", b64(narrow[:10]), "truncated frame header"),
        ({}, "src_frames", b64(narrow[:-8]), "truncated payload"),
        ({}, "tgt_frames", b64(narrow + bytes(8)), "bytes trail the payload"),
        ({}, "src_frames", b64(narrow[:-8] + struct.pack("<d", np.inf)), "frames contain non-"),
        ({"feat_dim": 5}, "src_frames", b64(narrow), "4 features, metadata 'feat_dim' is 5"),
        ({"feat_dim": 4}, "tgt_frames", b64(wide), "5 features, metadata 'feat_dim' is 4"),
    ):
        typed.write_text(json.dumps({"manifest": meta}) + "\n"
                         + json.dumps({**record, key: value}) + "\n")
        with pytest.raises(ParseError, match=f"typed.jsonl:2: field '{key}': {message}"):
            read_manifest(typed)


def test_manifest_reader_rejects_symbols_outside_the_vocabulary(tmp_path):
    frames = base64.b64encode(encode_frames(SpeechFrames(np.zeros((3, 4))))).decode()
    record = {"id": "a", "speaker": "s", "similarity": 1.0, "src_text": [1],
              "tgt_text": [2], "src_frames": frames, "tgt_frames": frames}
    m = tmp_path / "m.jsonl"
    for meta, key, text, message in (
        ({}, "src_text", [1, -1], "is not a list of ints >= 0"),
        ({"tgt_vocab": 6}, "tgt_text", [-2], "is not a list of ints >= 0"),
        ({"tgt_vocab": 6}, "tgt_text", [2, 6], "holds a symbol >= metadata 'tgt_vocab' 6"),
    ):
        m.write_text(json.dumps({"manifest": meta}) + "\n"
                     + json.dumps({**record, key: text}) + "\n")
        with pytest.raises(ParseError, match=f"m.jsonl:2: field '{key}' {message}"):
            read_manifest(m)
    # empty text, the last symbol of the vocabulary, and any symbol >= 0 where
    # no vocabulary is declared are all legal
    for meta, fields in (({"tgt_vocab": 6}, {"src_text": [], "tgt_text": []}),
                         ({"tgt_vocab": 6}, {"src_text": [9], "tgt_text": [0, 5]}),
                         ({}, {"tgt_text": [40]})):
        want = {**record, **fields}
        m.write_text(json.dumps({"manifest": meta}) + "\n" + json.dumps(want) + "\n")
        (r,) = read_manifest(m)
        assert (r.src_text, r.tgt_text) == (want["src_text"], want["tgt_text"])


def test_record_ids_must_name_a_file_inside_a_directory():
    seen = {}
    for lineno, rid in enumerate(("utt00000", "a.b", "...", "x-1_y"), start=2):
        check_record_id(rid, "m.jsonl", lineno, seen)
    assert seen == {"utt00000": 2, "a.b": 3, "...": 4, "x-1_y": 5}
    for rid in ("", ".", "..", "a b", "a\tb", "a/b", "../x", "a\\b"):
        with pytest.raises(ParseError, match="m.jsonl:2: record id"):
            check_record_id(rid, "m.jsonl", 2, {})
    with pytest.raises(ParseError,
                       match=r"m.jsonl:7: duplicate record id 'a.b' \(first on line 3\)"):
        check_record_id("a.b", "m.jsonl", 7, seen)


def test_stats_report_counts_and_rendering():
    m = generate_toy_corpus(small_cfg(pairs=5), 2)
    st = corpus_stats(m)
    assert st.records == 5
    assert st.src_frames == sum(r.src_frames.length for r in m)
    assert st.duration_s == pytest.approx(st.src_frames / 50)
    text = st.render_text()
    assert "records" in text and "duration proxy" in text


def test_empty_manifest_stats_and_filter():
    m = Manifest(records=[], metadata={"frame_rate": 50})
    st = corpus_stats(m)
    assert st.records == 0 and st.duration_s == 0.0
    assert len(filter_by_similarity(m, threshold=0.5)) == 0


def test_speech_frames_validation():
    with pytest.raises(ValueError):
        SpeechFrames(np.zeros(5))  # 1-D rejected


def test_utterance_pair_text_is_symbol_list():
    m = generate_toy_corpus(small_cfg(pairs=2), 9)
    for r in m:
        assert all(isinstance(t, int) for t in r.src_text)
        assert all(0 <= t < 6 for t in r.tgt_text)
        assert isinstance(r, UtterancePair)
