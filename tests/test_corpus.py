"""Tokenizer grammar and TSV ingestion."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from caster.corpus import (
    CorpusFormatError,
    PairCorpus,
    PairExample,
    SmilesParseError,
    _scan,
    atom_tokenize,
    load_pair_corpus,
    load_smiles_corpus,
    write_pair_corpus,
)
from test_spm import DAMAGE, damage

# Oracle for the two-letter rule: longest-match lookup over a token table.
_TOKEN_TABLE = ("Cl", "Br")


def _longest_match_oracle(s: str) -> list[str]:
    out = []
    i = 0
    while i < len(s):
        for tok in _TOKEN_TABLE:
            if s.startswith(tok, i):
                out.append(tok)
                i += len(tok)
                break
        else:
            out.append(s[i])
            i += 1
    return out


class TestAtomTokenize:
    def test_one_atom_per_character(self):
        assert atom_tokenize("CCO") == ["C", "C", "O"]

    def test_nitrate_motif(self):
        # hand-applied rules: bracket atoms whole, everything else single chars
        s = "O=[N+]([O-])OC"
        tokens = atom_tokenize(s)
        assert tokens == ["O", "=", "[N+]", "(", "[O-]", ")", "O", "C"]
        assert "".join(tokens) == s

    def test_two_letter_atoms(self):
        assert atom_tokenize("CCl") == _longest_match_oracle("CCl") == ["C", "Cl"]
        assert atom_tokenize("BrCBr") == ["Br", "C", "Br"]

    def test_percent_ring_label(self):
        assert atom_tokenize("C%12CC%12") == ["C", "%12", "C", "C", "%12"]

    def test_ring_digits_and_bonds(self):
        assert atom_tokenize("c1ccccc1C=C") == ["c", "1", "c", "c", "c", "c", "c", "1", "C", "=", "C"]

    def test_dot_separator(self):
        assert atom_tokenize("C.Cl") == ["C", ".", "Cl"]

    @pytest.mark.parametrize(
        "bad,offset",
        [
            ("C[NH", 1),
            ("C]O", 1),
            ("[]C", 0),
            ("C%1O", 1),
            ("C(O", 2),
            ("CO)", 2),
            # a ring label's two digits are ASCII: superscript two and
            # Arabic-Indic one and two are digits to str.isdigit
            ("C%\u00b2\u00b2C", 1),
            ("C%\u0661\u0662C", 1),
        ],
    )
    def test_parse_errors_name_offset(self, bad, offset):
        with pytest.raises(SmilesParseError) as err:
            atom_tokenize(bad)
        assert err.value.offset == offset
        assert str(offset) in str(err.value)

    def test_rejects_alien_characters(self):
        with pytest.raises(SmilesParseError):
            atom_tokenize("CC?O")
        with pytest.raises(SmilesParseError):
            atom_tokenize("")

    @given(
        st.lists(
            st.sampled_from(
                ["C", "N", "O", "S", "Cl", "Br", "[N+]", "[O-]", "[13CH3]", "=", "#", ".", "1", "2", "%11", "c", "n"]
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_lossless_roundtrip(self, tokens):
        s = "".join(tokens)
        assert "".join(atom_tokenize(s)) == s


def _outcome(tokenize, s):
    try:
        return tokenize(s)
    except SmilesParseError as err:
        return str(err), err.offset


# Pieces that meet each branch of the scanner: bracket atoms and broken
# bracket bodies, % labels with ASCII and non-ASCII digits, branches, the
# letters of Cl and Br alone and together, and characters outside the
# alphabet (non-ASCII digits included).
_PIECES = st.one_of(
    st.sampled_from(["[", "]", "[N+]", "[13CH3]", "[C@@H]", "[]", "[N", "[?]", "[[N]]", "[(]"]),
    st.sampled_from(["%", "%1", "%12", "%00", "%1a", "%\u00b2", "%\u00b2\u00b2", "%\u0661\u0662"]),
    st.sampled_from(["(", ")", "C", "l", "B", "r", "Cl", "Br", "c", "N", "O", "1", "2", "=", "#", ".", "*"]),
    st.sampled_from(["?", " ", "\u00e9", "\u00b2", "\u0661", "+", "@", "H", "-", "\\", "/", "$", ":"]),
)


class TestCompiledTokenizer:
    """`atom_tokenize` matches one compiled pattern; `_scan` walks the
    string a character at a time.  Both give the same tokens, or the same
    error at the same offset."""

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(_PIECES, max_size=12).map("".join))
    def test_matches_the_scanner(self, s):
        assert _outcome(atom_tokenize, s) == _outcome(_scan, s)

    @pytest.mark.parametrize(
        "bad,message,offset",
        [
            ("C[C[N]", "nested '[' inside bracket", 3),
            ("C[]", "empty bracket expression", 1),
            ("]C", "']' without matching '['", 0),
            ("CC%", "'%' must be followed by two digits", 2),
            ("C%\u00b2\u00b2C", "'%' must be followed by two digits", 1),
            (")C", "')' without matching '('", 0),
            ("C(C(N)", "unbalanced '(': missing ')'", 5),
        ],
    )
    def test_each_scanner_fault(self, bad, message, offset):
        assert _outcome(atom_tokenize, bad) == _outcome(_scan, bad) == (f"{message} (byte offset {offset})", offset)


class TestPairCorpusIO:
    def test_load_labelled(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\tlabel\nCCO\tCCN\t1\nCCO\tOCC\t0\n")
        corpus = load_pair_corpus(p, "labelled")
        assert len(corpus) == 2
        assert corpus.examples[0] == PairExample("CCO", "CCN", 1)
        assert corpus.labels() == [1, 0]

    def test_duplicate_unordered_pair_rejected(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\tlabel\nCCO\tCCN\t1\nCCN\tCCO\t1\n")
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_pair_corpus(p, "labelled")

    def test_labelled_missing_label_column(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\nCCO\tCCN\n")
        with pytest.raises(CorpusFormatError, match="label"):
            load_pair_corpus(p, "labelled")

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\tlabel\nCCO\tCCN\t1\nCCO\n")
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_pair_corpus(p, "labelled")

    def test_bad_label_value(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\tlabel\nCCO\tCCN\t2\n")
        with pytest.raises(CorpusFormatError, match="label"):
            load_pair_corpus(p, "labelled")

    def test_unlabelled_ignores_extra_columns_with_warning(self, tmp_path, caplog):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\tlabel\nCCO\tCCN\t1\n")
        with caplog.at_level("WARNING"):
            corpus = load_pair_corpus(p, "unlabelled")
        assert len(corpus) == 1
        assert corpus.examples[0].label is None
        assert any("ignored" in rec.message for rec in caplog.records)

    def test_unparseable_rows_skipped_and_counted(self, tmp_path, caplog):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\nCCO\tCCN\nC[X!\tCC\nCCS\tCCP\n")
        with caplog.at_level("WARNING"):
            corpus = load_pair_corpus(p, "unlabelled")
        assert len(corpus) == 2
        assert any("skipped 1" in rec.message for rec in caplog.records)

    def test_each_distinct_smiles_is_tokenized_once(self, tmp_path, caplog, monkeypatch):
        import caster.corpus

        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\nCCO\tCCN\nC[X!\tCCO\nCCN\tCCS\nCCS\tC[X!\nCCO\tCCS\n")
        calls = []

        def counted(smiles):
            calls.append(smiles)
            return atom_tokenize(smiles)

        monkeypatch.setattr(caster.corpus, "atom_tokenize", counted)
        with caplog.at_level("DEBUG", logger="caster.corpus"):
            corpus = load_pair_corpus(p, "unlabelled")
        assert sorted(calls) == ["CCN", "CCO", "CCS", "C[X!"]
        assert [ex.key() for ex in corpus] == [("CCN", "CCO"), ("CCN", "CCS"), ("CCO", "CCS")]
        assert corpus.rows == [0, 2, 4]
        skips = [rec.getMessage() for rec in caplog.records if "skipped:" in rec.getMessage()]
        assert skips == [
            f"{p}: line 3 skipped: unbalanced '[': missing ']' (byte offset 1)",
            f"{p}: line 5 skipped: unbalanced '[': missing ']' (byte offset 1)",
        ]
        assert any("skipped 2 rows" in rec.getMessage() for rec in caplog.records)

    def test_rows_count_data_rows_only(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\n\nCCO\tCCN\n\nC(C\tCC\nCCS\tCCP\n")
        assert load_pair_corpus(p, "unlabelled").rows == [0, 2]
        assert PairCorpus([PairExample("C", "N")], "unlabelled").rows is None
        with pytest.raises(ValueError, match="2 row numbers for 1 examples"):
            PairCorpus([PairExample("C", "N")], "unlabelled", [0, 1])

    def test_tokens_of_each_kept_compound(self, tmp_path):
        # the tokens the loader checked each compound with; a compound seen
        # only in a skipped row has none
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\nCCl\tC[N+]\nCCS\tC(C\nCBr\tCCl\n")
        corpus = load_pair_corpus(p, "unlabelled")
        assert corpus.tokens == {"CCl": ["C", "Cl"], "C[N+]": ["C", "[N+]"], "CBr": ["C", "Br"]}
        assert PairCorpus([PairExample("C", "N")], "unlabelled").tokens is None
        assert corpus == PairCorpus(corpus.examples, "unlabelled")
        with pytest.raises(ValueError, match="no tokens for a compound of pair"):
            PairCorpus([PairExample("C", "N")], "unlabelled", tokens={"C": ["C"]})

    def test_roundtrip(self, tmp_path):
        corpus = PairCorpus(
            [PairExample("CCO", "CCN", 1), PairExample("CCS", "CCP", 0)], "labelled"
        )
        p = tmp_path / "out.tsv"
        write_pair_corpus(p, corpus)
        again = load_pair_corpus(p, "labelled")
        assert again.examples == corpus.examples

    def test_smiles_corpus(self, tmp_path):
        p = tmp_path / "smiles.txt"
        p.write_text("CCO\nCCN\n\nC[bad\n")
        assert load_smiles_corpus(p) == ["CCO", "CCN"]

    def test_pair_corpus_undecodable_byte_names_file_and_line(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_bytes(b"smiles_1\tsmiles_2\tlabel\nCCO\tCCN\t1\nCC\xffO\tCCN\t0\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(p))}: line 3: invalid UTF-8 byte 0xff$"):
            load_pair_corpus(p, "labelled")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_faults_near_the_end_of_a_long_file_name_their_line(self, tmp_path, newline):
        # 5,000 distinct unordered pairs of parseable SMILES
        rows = [f"{'C' * (1 + i % 50)}O\t{'N' * (1 + i // 50)}C\t{i % 2}".encode() for i in range(5000)]
        p = tmp_path / "pairs.tsv"
        p.write_bytes(newline.join([b"smiles_1\tsmiles_2\tlabel", *rows, b""]))
        assert len(load_pair_corpus(p, "labelled")) == len(rows)
        bad_row, bad_byte = list(rows), list(rows)
        bad_row[4990] = b"CCO"  # line 4992
        bad_byte[4995] = b"CC\xffO\tCCN\t1"  # line 4997
        cases = [
            (bad_row, "line 4992: expected 3 columns, got 1"),
            (bad_byte, "line 4997: invalid UTF-8 byte 0xff"),
        ]
        # as when the file was decoded whole, the undecodable byte is
        # reported even after a bad row, near it or far before it
        for at in (4990, 100):
            both = list(bad_byte)
            both[at] = b"CCO"
            cases.append((both, "line 4997: invalid UTF-8 byte 0xff"))
        for lines, message in cases:
            p.write_bytes(newline.join([b"smiles_1\tsmiles_2\tlabel", *lines, b""]))
            with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(p))}: {message}$"):
                load_pair_corpus(p, "labelled")

    def test_pair_corpus_splits_only_on_newlines(self, tmp_path):
        # as for the SMILES list: \x0c is no line boundary, so the row keeps
        # its two columns and its unparseable compound is skipped
        p = tmp_path / "pairs.tsv"
        p.write_text("smiles_1\tsmiles_2\nCCO\tCC\x0cCN\nCCS\tCCP\n", encoding="utf-8")
        assert load_pair_corpus(p, "unlabelled").examples == [PairExample("CCS", "CCP")]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_smiles_corpus_undecodable_byte_names_file_and_line(self, tmp_path, newline):
        p = tmp_path / "smiles.txt"
        p.write_bytes(newline.join([b"CCO", b"CCN", b"CC\xffN", b""]))
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(p))}: line 3: invalid UTF-8 byte 0xff$"):
            load_smiles_corpus(p)

    def test_smiles_corpus_splits_only_on_newlines(self, tmp_path):
        # \x0c is a line boundary for str.splitlines but not for text-mode
        # reading: the line stays one unparseable compound, not two.
        p = tmp_path / "smiles.txt"
        p.write_text("CCO\nCC\x0cCN\nCCS\n", encoding="utf-8")
        assert load_smiles_corpus(p) == ["CCO", "CCS"]


@pytest.fixture(scope="module")
def saved_pair_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    compounds = ["CCO", "CCN", "c1ccccc1Cl", "CC(=O)O", "[NH4+]", "CCBr", "C%10CC%10"]
    pairs = list(itertools.combinations(compounds, 2))
    paths = {}
    for kind, labels in (("labelled", [i % 2 for i in range(len(pairs))]), ("unlabelled", None)):
        examples = [PairExample(a, b, None if labels is None else labels[i]) for i, (a, b) in enumerate(pairs)]
        paths[kind] = root / f"{kind}.tsv"
        write_pair_corpus(paths[kind], PairCorpus(examples, kind))
    return paths


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["labelled", "unlabelled"]), **DAMAGE)
def test_damaged_pair_corpus_raises_only_typed_errors(saved_pair_corpora, kind, cut, flips, inserts):
    path = saved_pair_corpora[kind]
    damaged = path.with_name(f"damaged_{kind}.tsv")
    damaged.write_bytes(damage(path.read_bytes(), cut, flips, inserts))
    try:
        load_pair_corpus(damaged, kind)
    except (CorpusFormatError, SmilesParseError) as err:
        assert str(damaged) in str(err)


class TestPairCorpusInvariants:
    def test_duplicate_detection_in_constructor(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairCorpus([PairExample("C", "N", 1), PairExample("N", "C", 0)], "labelled")

    def test_kind_consistency(self):
        with pytest.raises(ValueError):
            PairCorpus([PairExample("C", "N")], "labelled")
        with pytest.raises(ValueError):
            PairCorpus([PairExample("C", "N", 1)], "unlabelled")
