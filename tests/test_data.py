import logging
import os
import threading
import tracemalloc

import numpy as np
import pytest

from pbmf import data
from pbmf.data import (
    SplitSpec,
    load_csv,
    load_movielens,
    split,
)
from pbmf.synthetic import write_movielens_file, zipf_popularity_dataset

from conftest import DATA_DIR, make_dataset


class TestLoadMovielens:
    def test_single_line(self, tmp_path):
        path = tmp_path / "one.dat"
        path.write_text("1::10::5::978300760\n")
        ds = load_movielens(path)
        assert ds.n == 1 and ds.m == 1
        assert ds.r_max == 5.0
        assert len(ds) == 1

    def test_hand_built_counts(self, tmp_path):
        # 20 lines: every pair of 4 users x 5 items, ratings cycling 1..4.
        lines = []
        t = 0
        for u in range(1, 5):
            for i in range(1, 6):
                lines.append(f"{u}::{i}::{t % 4 + 1}::{978300000 + t}")
                t += 1
        path = tmp_path / "grid.dat"
        path.write_text("\n".join(lines) + "\n")
        ds = load_movielens(path)
        assert (ds.n, ds.m) == (4, 5)
        assert ds.r_max == 4.0
        assert len(ds) == 20

    def test_fixture_counts(self):
        ds = load_movielens(DATA_DIR / "ml1m_sample.dat")
        assert (ds.n, ds.m) == (12, 9)
        assert ds.r_max == 5.0

    def test_malformed_lines_skipped(self, tmp_path, caplog):
        path = tmp_path / "messy.dat"
        path.write_text("1::10::5::1\nnot a line\n2::20::3\n\n2::10::4::2\n")
        with caplog.at_level(logging.WARNING):
            ds = load_movielens(path)
        assert len(ds) == 2
        assert "2 malformed" in caplog.text

    def test_non_numeric_rating_names_line(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1::10::5::1\n1::20::abc::2\n")
        with pytest.raises(ValueError, match=r"bad\.dat:2: rating 'abc' is not a number"):
            load_movielens(path)

    def test_nonpositive_rating_rejected(self, tmp_path):
        path = tmp_path / "zero.dat"
        path.write_text("1::10::0::1\n")
        with pytest.raises(ValueError, match=r"zero\.dat:1: rating must be finite and > 0, got 0\.0"):
            load_movielens(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_movielens(tmp_path / "nope.dat")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match=r"empty\.dat: no valid interactions found"):
            load_movielens(path)

    def test_reload_is_identical(self, tmp_path):
        path = tmp_path / "again.dat"
        path.write_text("7::3::4::1\n7::9::2::2\n8::3::5::3\n")
        a = load_movielens(path)
        b = load_movielens(path)
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.ratings, b.ratings)
        assert a.user_map == b.user_map and a.item_map == b.item_map

    def test_first_appearance_index_order(self, tmp_path):
        path = tmp_path / "order.dat"
        path.write_text("9::30::1::1\n2::30::2::2\n9::11::3::3\n")
        ds = load_movielens(path)
        assert ds.user_map == {"9": 0, "2": 1}
        assert ds.item_map == {"30": 0, "11": 1}

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.dat"
        path.write_bytes(b"\xef\xbb\xbf1::1::5::0\n1::2::4::0\n2::1::3::0\n")
        ds = load_movielens(path)
        assert ds.user_map == {"1": 0, "2": 1}
        assert ds.users.tolist() == [0, 0, 1]

    def test_empty_id_is_malformed(self, tmp_path, caplog):
        path = tmp_path / "empty_id.dat"
        path.write_text("::1::5::0\n1::2::4::0\n2::::3::0\n2::1::3::0\n3:: ::3::0\n")
        with caplog.at_level(logging.WARNING):
            ds = load_movielens(path)
        assert ds.user_map == {"1": 0, "2": 1}
        assert ds.item_map == {"2": 0, "1": 1}
        assert "3 malformed" in caplog.text

    def test_digit_separator_rating_rejected(self, tmp_path):
        # float("4_5") is 45.0, which would also make r_max 45.
        path = tmp_path / "sep.dat"
        path.write_text("1::10::5::1\n1::20::4_5::2\n")
        with pytest.raises(ValueError, match=r"sep\.dat:2: rating '4_5' is not a number"):
            load_movielens(path)

    # A "u" before each user id takes the file out of the digit layout, so it
    # is read a line at a time.
    @pytest.mark.parametrize("user_prefix", ["", "u"], ids=["digits", "u_prefixed"])
    def test_peak_memory_per_row(self, tmp_path, user_prefix):
        # One Python object per row (a dict entry keyed on a tuple of two id
        # strings) costs about 250 bytes a row; flat index arrays cost under 100.
        dataset = zipf_popularity_dataset(2000, 500, 25, seed=3, rating_scale=5,
                                          integer_ratings=True)
        path = tmp_path / "zipf50k.dat"
        write_movielens_file(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(user_prefix + line for line in lines))
        tracemalloc.start()
        try:
            loaded = load_movielens(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 50_000
        assert peak / len(loaded) < 150

    def test_benchmark_files_take_the_numpy_step(self, tmp_path):
        # Rating files written as perfbench/run.py's make_inputs writes them,
        # for the popularity exponents of its workloads, and ML-1M's sample
        # are in the digit layout; the sample's CRLF copy is not.
        for exponent in (1.0, 0.5, 0.8):
            for seed in (7, 99, 12345):
                dataset = zipf_popularity_dataset(80, 60, 8, seed=seed,
                                                  popularity_exponent=exponent,
                                                  rating_scale=5, integer_ratings=True)
                path = tmp_path / f"ratings_{exponent}_{seed}.dat"
                write_movielens_file(dataset, path)
                assert data._parse_digits(str(path)) is not None, path.name
        sample = DATA_DIR / "ml1m_sample.dat"
        crlf = tmp_path / "crlf.dat"
        crlf.write_bytes(sample.read_bytes().replace(b"\n", b"\r\n"))
        assert data._parse_digits(str(sample)) is not None
        assert data._parse_digits(str(crlf)) is None

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        # A pipe cannot be read a second time, so it takes the general path
        # alone: here the digit layout would fail only at the last line.
        text = "".join(f"{u}::{u % 7 + 1}::4::0\n" for u in range(1, 8000)) + "x::1::3::0\n"
        regular, fifo = tmp_path / "ratings.dat", tmp_path / "ratings.fifo"
        regular.write_text(text)
        os.mkfifo(fifo)
        loaded = []
        threads = [threading.Thread(target=fifo.write_text, args=(text,), daemon=True),
                   threading.Thread(target=lambda: loaded.append(load_movielens(fifo)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        threads[1].join(timeout=30)
        assert not threads[1].is_alive()
        want = load_movielens(regular)
        assert loaded[0].users.tolist() == want.users.tolist()
        assert (loaded[0].user_map, loaded[0].item_map) == (want.user_map, want.item_map)


@pytest.mark.parametrize("sep, load", [("::", load_movielens), (",", load_csv)],
                         ids=["movielens", "csv"])
def test_r_max_is_the_largest_kept_rating(tmp_path, sep, load):
    # The file's highest rating, 5, is replaced by its pair's last rating.
    path = tmp_path / "replaced_top.txt"
    path.write_text("".join(sep.join(row) + "\n" for row in
                            [("1", "10", "5", "0"), ("1", "20", "3", "0"), ("1", "10", "2", "0")]))
    ds = load(path)
    assert ds.ratings.tolist() == [2.0, 3.0]
    assert ds.r_max == 3.0


class TestLoadCsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("u1,i1,3\n")
        ds = load_csv(path)
        assert (ds.n, ds.m) == (1, 1)
        assert ds.r_max == 3.0

    def test_duplicate_pair_keeps_last(self, tmp_path, caplog):
        path = tmp_path / "dup.csv"
        path.write_text("u1,i1,3\nu1,i2,4\nu1,i1,5\n")
        with caplog.at_level(logging.WARNING):
            ds = load_csv(path)
        assert len(ds) == 2  # rows - 1
        pair_rating = dict(zip(zip(ds.users.tolist(), ds.items.tolist()), ds.ratings))
        assert pair_rating[(0, 0)] == 5.0
        assert "1 duplicated" in caplog.text

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("u1,i1,3\nu2,i2\n")
        with pytest.raises(ValueError, match=r"short\.csv:2: expected at least 3 columns, found 2"):
            load_csv(path)

    @pytest.mark.parametrize("last, message", [
        ("u3,i3", "expected at least 3 columns, found 2"),
        (" ,i3,3", "empty user or item id"),
        ("u3,i3,x", "rating 'x' is not a number"),
    ])
    def test_error_names_the_physical_line(self, tmp_path, last, message):
        # The quoted id spans lines 2-3, so the bad record is the third
        # record but sits on line 4.
        path = tmp_path / "multi.csv"
        path.write_text(f'u1,i1,5\n"u\n2",i2,4\n{last}\n')
        with pytest.raises(ValueError, match=rf"multi\.csv:4: {message}"):
            load_csv(path)

    def test_oversized_field_is_schema_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("u1,i1,3\nu2," + "x" * 200_000 + ",4\n")
        with pytest.raises(ValueError, match=r"big\.csv:2: field larger than field limit"):
            load_csv(path)

    @pytest.mark.parametrize("cols", [
        {"user_col": -1}, {"item_col": -2}, {"rating_col": -1},
    ])
    def test_negative_column_rejected(self, tmp_path, cols):
        path = tmp_path / "one.csv"
        path.write_text("u1,i1,3\n")
        with pytest.raises(ValueError, match="column indices must be >= 0"):
            load_csv(path, **cols)

    def test_header_and_custom_columns(self, tmp_path):
        path = tmp_path / "ctx.csv"
        path.write_text("item;user;age;rating\ni1;u1;30;4\ni2;u1;30;2\ni1;u2;19;5\n")
        ds = load_csv(path, user_col=1, item_col=0, rating_col=3, delimiter=";", has_header=True)
        assert (ds.n, ds.m) == (2, 2)
        assert ds.r_max == 5.0

    @pytest.mark.parametrize("start", [b"\n", b"\xef\xbb\xbf \r\n"], ids=["blank", "bom_blank"])
    def test_header_is_first_non_blank_row(self, tmp_path, start):
        path = tmp_path / "blank_head.csv"
        path.write_bytes(start + b"user,item,rating\nu1,i1,5\nu2,i1,3\n")
        ds = load_csv(path, has_header=True)
        assert ds.user_map == {"u1": 0, "u2": 1}
        assert ds.ratings.tolist() == [5.0, 3.0]

    def test_header_skip_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "blank_head.csv"
        path.write_text("\nuser,item,rating\nu1,i1,five\n")
        with pytest.raises(ValueError, match=r"blank_head\.csv:3: "):
            load_csv(path, has_header=True)

    def test_fixture_with_context_columns(self):
        ds = load_csv(DATA_DIR / "ldos_sample.csv", has_header=True)
        assert (ds.n, ds.m) == (5, 7)
        assert ds.r_max == 5.0

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,1,5\n1,2,4\n2,1,3\n")
        ds = load_csv(path)
        assert ds.user_map == {"1": 0, "2": 1}
        assert ds.users.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("row", [" ,1,5", "2,,3"])
    def test_empty_id_is_schema_error(self, tmp_path, row):
        path = tmp_path / "empty_id.csv"
        path.write_text(f"1,1,4\n{row}\n")
        with pytest.raises(ValueError, match=r"empty_id\.csv:2: empty user or item id"):
            load_csv(path)

    def test_digit_separator_rating_rejected(self, tmp_path):
        path = tmp_path / "sep.csv"
        path.write_text("u1,i1,5\nu1,i2,1_0.5\n")
        with pytest.raises(ValueError, match=r"sep\.csv:2: rating '1_0.5' is not a number"):
            load_csv(path)


class TestSplit:
    def test_fraction_on_large_dataset(self):
        rng = np.random.default_rng(0)
        size = 5000
        ds = make_dataset(
            users=rng.integers(0, 100, size),
            items=rng.integers(0, 50, size),
            ratings=rng.integers(1, 6, size).astype(float),
            n=100,
            m=50,
        )
        train, test = split(ds, SplitSpec(test_fraction=0.2, seed=3))
        assert abs(len(test) / len(ds) - 0.2) <= 0.02

    def test_same_seed_same_split(self, toy_dataset):
        spec = SplitSpec(test_fraction=0.3, seed=7)
        a_train, a_test = split(toy_dataset, spec)
        b_train, b_test = split(toy_dataset, spec)
        assert np.array_equal(a_train.users, b_train.users)
        assert np.array_equal(a_test.items, b_test.items)
        assert np.array_equal(a_test.ratings, b_test.ratings)

    def test_golden_membership(self, toy_dataset):
        # Frozen once from a reference run of seed=7, fraction=0.3.
        train, test = split(toy_dataset, SplitSpec(test_fraction=0.3, seed=7))
        train_pairs = sorted(zip(train.users.tolist(), train.items.tolist()))
        test_pairs = sorted(zip(test.users.tolist(), test.items.tolist()))
        assert train_pairs == [(0, 0), (0, 1), (0, 3), (1, 1), (1, 4), (2, 3), (2, 4), (3, 2)]
        assert test_pairs == [(1, 2), (3, 0)]

    def test_counts_invariant(self):
        rng = np.random.default_rng(1)
        size = 400
        ds = make_dataset(
            users=rng.integers(0, 60, size),
            items=rng.integers(0, 40, size),
            ratings=rng.integers(1, 6, size).astype(float),
            n=60,
            m=40,
        )
        for seed in range(10):
            train, test = split(ds, SplitSpec(test_fraction=0.25, seed=seed))
            dropped = len(ds) - len(train) - len(test)
            assert dropped >= 0
            assert len(train) + len(test) + dropped == len(ds)

    def test_scale_and_dims_inherited(self, toy_dataset):
        train, test = split(toy_dataset, SplitSpec(test_fraction=0.3, seed=7))
        for part in (train, test):
            assert part.n == toy_dataset.n and part.m == toy_dataset.m
            assert part.r_max == toy_dataset.r_max
        # The test side's own max is smaller than the inherited scale here.
        assert test.ratings.max() < test.r_max

    def test_drop_unseen_accounting(self):
        # One user rates a single item; whenever that row lands in test it
        # must be dropped (its user has no training interactions).
        users = [0, 0, 1, 1, 2]
        items = [0, 1, 0, 1, 2]
        ratings = [3.0, 4.0, 2.0, 5.0, 1.0]
        ds = make_dataset(users, items, ratings, n=3, m=3)
        hit = False
        for seed in range(200):
            mask = np.random.default_rng(seed).random(5) < 0.4
            if not mask[4] or mask.all() or not mask.any():
                continue
            hit = True
            train, test = split(ds, SplitSpec(test_fraction=0.4, seed=seed))
            pairs = set(zip(test.users.tolist(), test.items.tolist()))
            assert (2, 2) not in pairs
            assert len(train) + len(test) < len(ds)
            break
        assert hit, "no seed in range exercised the drop path"

    def test_empty_side_raises(self, toy_dataset):
        with pytest.raises(ValueError, match=r"test_fraction=1e-09 left an empty split "
                                             r"for 10 interactions"):
            split(toy_dataset, SplitSpec(test_fraction=1e-9, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=0.5, seed=-1)


def test_items_by_user(toy_dataset):
    per_user = toy_dataset.items_by_user()
    assert len(per_user) == toy_dataset.n
    assert sorted(per_user[0].tolist()) == [0, 1, 3]
    assert sorted(per_user[3].tolist()) == [0, 2]


def test_dataset_arrays_are_read_only(toy_dataset):
    with pytest.raises(ValueError):
        toy_dataset.ratings[0] = 99.0
