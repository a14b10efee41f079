"""Pure-Python PDF extraction → table recognizer end-to-end."""

import zlib

import pytest


def make_pdf(page_streams: list[bytes], compress: bool = False) -> bytes:
    """Minimal but valid PDF writer: catalog + pages tree + Helvetica +
    one content stream per page."""
    objs: dict[int, bytes] = {}
    n_pages = len(page_streams)
    font_num = 3
    first_page = 4
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    kids = " ".join(f"{first_page + 2 * i} 0 R" for i in range(n_pages))
    objs[2] = f"<< /Type /Pages /Kids [ {kids} ] /Count {n_pages} >>".encode()
    objs[font_num] = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    for i, stream in enumerate(page_streams):
        pnum = first_page + 2 * i
        cnum = pnum + 1
        objs[pnum] = (
            f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            f"/Resources << /Font << /F1 {font_num} 0 R >> >> "
            f"/Contents {cnum} 0 R >>"
        ).encode()
        data = zlib.compress(stream) if compress else stream
        filt = b"/Filter /FlateDecode " if compress else b""
        objs[cnum] = (
            b"<< " + filt + f"/Length {len(data)} >>".encode()
            + b"\nstream\n" + data + b"\nendstream"
        )
    out = [b"%PDF-1.4\n"]
    for num in sorted(objs):
        out.append(f"{num} 0 obj\n".encode() + objs[num] + b"\nendobj\n")
    out.append(b"trailer\n<< /Root 1 0 R >>\n%%EOF\n")
    return b"".join(out)


TABLE_STREAM = b"""
BT /F1 12 Tf 100 730 Td (Quarterly report) Tj ET
0.5 w
100 700 210 0.5 re f
100 680 210 0.5 re f
100 660 210 0.5 re f
100 640 210 0.5 re f
100 640 0.5 60 re f
170 640 0.5 60 re f
240 640 0.5 60 re f
310 640 0.5 60 re f
BT /F1 10 Tf 110 686 Td (Name) Tj ET
BT /F1 10 Tf 180 686 Td (Value) Tj ET
BT /F1 10 Tf 250 686 Td (Notes) Tj ET
BT /F1 10 Tf 110 666 Td (Revenue) Tj ET
BT /F1 10 Tf 180 666 Td (42) Tj ET
BT /F1 10 Tf 250 666 Td (ok) Tj ET
BT /F1 10 Tf 110 646 Td (Cost) Tj ET
BT /F1 10 Tf 180 646 Td (7) Tj ET
BT /F1 10 Tf 250 646 Td (fine) Tj ET
"""


def test_pdf_words_and_drawings():
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import extract_pdf_pages

    pages = extract_pdf_pages(make_pdf([TABLE_STREAM]))
    assert len(pages) == 1
    words, drawings = pages[0]
    texts = [w[4] for w in words]
    assert texts == ["Quarterly", "report", "Name", "Value", "Notes",
                     "Revenue", "42", "ok", "Cost", "7", "fine"]
    assert len(drawings) == 8
    # top-left coordinates: the title sits above the table lines
    title = [w for w in words if w[4] == "Quarterly"][0]
    line_ys = sorted(d[1] for d in drawings)
    assert title[1] < line_ys[0]
    # grid lines are thin
    h_lines = [d for d in drawings if (d[2] - d[0]) > (d[3] - d[1])]
    assert len(h_lines) == 4 and all((d[3] - d[1]) <= 1.2 for d in h_lines)


def test_pdf_to_xhtml_recognizes_table():
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import pdf_to_xhtml

    xhtml = pdf_to_xhtml(make_pdf([TABLE_STREAM], compress=True))
    assert "<table>" in xhtml
    assert "<p>Quarterly report</p>" in xhtml
    # cells land in grid order
    assert xhtml.index("Name") < xhtml.index("Value") < xhtml.index("Revenue")
    assert "<td><p>42</p>" in xhtml.replace("\n", "")


def test_pdf_tj_kerning_and_tm():
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import extract_pdf_pages

    stream = b"""
BT /F1 12 Tf 1 0 0 1 50 700 Tm [ (Hel) -20 (lo) 500 (world) ] TJ ET
BT /F1 12 Tf 50 650 Td (line1) Tj 0 -20 Td (line2) Tj ET
"""
    (words, _), = extract_pdf_pages(make_pdf([stream]))
    texts = [w[4] for w in words]
    # -20/1000 em merges Hel+lo; +500 pushes 'world' left... positive values
    # SUBTRACT, so 500 moves x backwards — still a separate word
    assert "Hello" in texts and "world" in texts
    l1 = [w for w in words if w[4] == "line1"][0]
    l2 = [w for w in words if w[4] == "line2"][0]
    assert l2[1] > l1[1] and abs(l1[0] - l2[0]) < 0.01


def test_pdf_multipage_order_and_line_ops():
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import (
        extract_pdf_pages,
        pdf_to_xhtml,
    )

    p1 = b"BT /F1 12 Tf 100 700 Td (first) Tj ET"
    p2 = b"""
100 700 m 300 700 l S
BT /F1 12 Tf 100 680 Td (second) Tj ET
"""
    pages = extract_pdf_pages(make_pdf([p1, p2]))
    assert [w[4] for w in pages[0][0]] == ["first"]
    assert [w[4] for w in pages[1][0]] == ["second"]
    assert len(pages[1][1]) == 1  # the stroked line became a drawing rect
    xhtml = pdf_to_xhtml(make_pdf([p1, p2]))
    assert 'pageno="1"' in xhtml and 'pageno="2"' in xhtml
    assert xhtml.index("first") < xhtml.index("second")


def test_pdf_rejects_non_pdf_and_encrypted():
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import (
        PdfParseError,
        extract_pdf_pages,
    )

    with pytest.raises(PdfParseError):
        extract_pdf_pages(b"<html>not a pdf</html>")
    enc = make_pdf([b"BT ET"])
    enc = enc.replace(b"trailer\n<< /Root 1 0 R >>",
                      b"trailer\n<< /Root 1 0 R /Encrypt 9 0 R >>")
    with pytest.raises(PdfParseError):
        extract_pdf_pages(enc)


def test_pdf_pipeline_stage(ray_session):
    """pdf-bytes dataset → extraction stage → KG pipeline end-to-end."""
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.stages.extract import add_extracted_text

    stream = (
        b"BT /F1 12 Tf 100 700 Td "
        b"(Acme Corp was founded in 1987.) Tj ET"
    )
    pdf = make_pdf([stream])
    rows = pa.table({
        "url": pa.array([f"https://x/report{i}.pdf" for i in range(6)]),
        "pdf": pa.array([pdf] * 6, pa.binary()),
    })
    ds = ray.data.from_arrow(rows)
    extracted = add_extracted_text(ds)
    df = extracted.to_pandas()
    assert list(df.columns[:2]) == ["url", "text"] or "text" in df.columns
    assert all("Acme Corp was founded in 1987." in t for t in df["text"])
    assert df["extract_error"].isna().all()

    res = run_kg_pipeline(add_extracted_text(ds))
    triples = res["triples"].to_pandas()
    assert (triples["predicate"].str.endswith("foundedIn")).any()


def test_pdf_doc_mode_cli(tmp_path):
    import subprocess
    import sys

    stream = b"BT /F1 12 Tf 100 700 Td (Acme Corp was founded in 1987.) Tj ET"
    p = tmp_path / "doc.pdf"
    p.write_bytes(make_pdf([stream]))
    out = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "doc",
         "--workflow", "workflows/webpage_kg.yaml", "--text", str(p),
         "-d", "doc=mypdf"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert out.returncode == 0, out.stderr
    assert "ent:Acme_Corp" in out.stdout
    assert "foundedIn 1987" in out.stdout


def test_pdf_corpus_cli_run(tmp_path):
    """End-to-end: a directory of PDFs through `run --pages pdf:DIR`."""
    import json
    import subprocess
    import sys

    pdf_dir = tmp_path / "pdfs"
    pdf_dir.mkdir()
    stream = b"BT /F1 12 Tf 100 700 Td (Acme Corp was founded in 1987.) Tj ET"
    for i in range(4):
        (pdf_dir / f"report{i}.pdf").write_bytes(make_pdf([stream]))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "run",
         "--pages", f"pdf:{pdf_dir}", "--out", str(out_dir),
         "--num-cpus", "4", "--num-buckets", "4"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["n_triples"] > 0
    ttls = list((out_dir / "ttl").glob("part-*.ttl"))
    assert ttls and any("Acme_Corp" in p.read_text() for p in ttls)


def test_pdf_parser_never_crashes_on_fuzz():
    """Property: arbitrary bytes either parse or raise PdfParseError — never
    an unhandled exception (ingestion robustness for dirty corpora)."""
    from hypothesis import given, settings, strategies as st

    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import (
        PdfParseError,
        extract_pdf_pages,
    )

    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def run(payload):
        try:
            extract_pdf_pages(b"%PDF-1.4\n" + payload)
        except PdfParseError:
            pass

    run()

    # mutilated valid PDFs: truncations of a real one
    base = make_pdf([TABLE_STREAM], compress=True)
    for cut in (10, 100, len(base) // 2, len(base) - 5):
        try:
            extract_pdf_pages(base[:cut])
        except PdfParseError:
            pass


def test_pdf_flate_stream_ending_in_eol_bytes():
    """Compressed data may legitimately end in 0x0A/0x0D; /Length slicing
    (and at most ONE EOL strip without /Length) must preserve those bytes
    (ADVICE r2: rstrip(b'\\r\\n') corrupted ~1-2% of valid streams)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import pdf_to_xhtml

    stream = b"BT /F1 12 Tf 100 730 Td (Probe 1039 ) Tj ET"
    data = zlib.compress(stream)
    assert data.endswith(b"\n\n")  # the regression trigger
    # /Length path (make_pdf writes exact /Length)
    assert "Probe 1039" in pdf_to_xhtml(make_pdf([stream], compress=True))
    # no-/Length path: hand-build the content object without /Length
    pdf = make_pdf([stream], compress=True)
    needle = f"/Length {len(data)} ".encode()
    assert needle in pdf
    assert "Probe 1039" in pdf_to_xhtml(pdf.replace(needle, b""))


def test_pdf_corrupt_flate_raises_pdfparseerror():
    """zlib failures surface as PdfParseError (module contract), never raw
    zlib.error."""
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import (
        PdfParseError,
        pdf_to_xhtml,
    )

    stream = b"BT /F1 12 Tf 100 730 Td (x) Tj ET"
    data = zlib.compress(stream)
    pdf = make_pdf([stream], compress=True)
    bad = pdf.replace(data, b"\x00" * len(data))
    with pytest.raises(PdfParseError):
        pdf_to_xhtml(bad)


def make_cid_pdf() -> bytes:
    """Minimal PDF with a Type0 font + ToUnicode CMap and a 2-byte-coded
    hex string spelling 'Hello' (bfchar + bfrange coverage)."""
    cmap = (b"/CIDInit /ProcSet findresource begin\n"
            b"begincmap\n"
            b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
            b"3 beginbfchar\n<0001> <0048>\n<0002> <0065>\n<0003> <006F>\n"
            b"endbfchar\n"
            b"1 beginbfrange\n<0010> <0012> <006C>\nendbfrange\n"
            b"endcmap\nend\n")
    content = b"BT /F1 12 Tf 100 700 Td <000100020010001000 03> Tj ET"
    # (whitespace inside hex strings is legal and must be ignored)
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [ 4 0 R ] /Count 1 >>",
        3: (b"<< /Type /Font /Subtype /Type0 /BaseFont /MySerif "
            b"/Encoding /Identity-H /ToUnicode 6 0 R >>"),
        4: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 3 0 R >> >> /Contents 5 0 R >>"),
        5: (f"<< /Length {len(content)} >>".encode()
            + b"\nstream\n" + content + b"\nendstream"),
        6: (f"<< /Length {len(cmap)} >>".encode()
            + b"\nstream\n" + cmap + b"\nendstream"),
    }
    out = [b"%PDF-1.4\n"]
    for num in sorted(objs):
        out.append(f"{num} 0 obj\n".encode() + objs[num] + b"\nendobj\n")
    out.append(b"trailer\n<< /Root 1 0 R >>\n%%EOF\n")
    return b"".join(out)


def test_pdf_type0_tounicode_cmap():
    """VERDICT r2 #7: a CMap-carrying Type0 PDF round-trips with correct
    text instead of byte-wise garbage."""
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import pdf_to_xhtml

    xhtml = pdf_to_xhtml(make_cid_pdf())
    assert "Hello" in xhtml


def make_pdf_objstm(page_streams: list[bytes]) -> bytes:
    """Same document as :func:`make_pdf`, but every non-stream object
    (catalog, pages tree, font, page dicts) is packed into a single
    compressed /ObjStm — only the content streams stay top-level."""
    n_pages = len(page_streams)
    font_num = 3
    first_page = 4
    packed: dict[int, bytes] = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        font_num: b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    }
    kids = " ".join(f"{first_page + 2 * i} 0 R" for i in range(n_pages))
    packed[2] = f"<< /Type /Pages /Kids [ {kids} ] /Count {n_pages} >>".encode()
    top: dict[int, bytes] = {}
    for i, stream in enumerate(page_streams):
        pnum = first_page + 2 * i
        cnum = pnum + 1
        packed[pnum] = (
            f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            f"/Resources << /Font << /F1 {font_num} 0 R >> >> "
            f"/Contents {cnum} 0 R >>"
        ).encode()
        data = zlib.compress(stream)
        top[cnum] = (
            f"<< /Filter /FlateDecode /Length {len(data)} >>".encode()
            + b"\nstream\n" + data + b"\nendstream"
        )
    nums = sorted(packed)
    bodies, offsets, pos = [], [], 0
    for num in nums:
        offsets.append((num, pos))
        bodies.append(packed[num])
        pos += len(packed[num]) + 1
    header = (" ".join(f"{n} {o}" for n, o in offsets) + " ").encode()
    payload = header + b" ".join(bodies) + b" "
    comp = zlib.compress(payload)
    objstm = (
        f"<< /Type /ObjStm /N {len(nums)} /First {len(header)} "
        f"/Filter /FlateDecode /Length {len(comp)} >>".encode()
        + b"\nstream\n" + comp + b"\nendstream"
    )
    out = [b"%PDF-1.5\n", b"50 0 obj\n" + objstm + b"\nendobj\n"]
    for num in sorted(top):
        out.append(f"{num} 0 obj\n".encode() + top[num] + b"\nendobj\n")
    out.append(b"trailer\n<< /Root 1 0 R >>\n%%EOF\n")
    return b"".join(out)


def test_object_stream_pdf_matches_classic_layout():
    """A PDF 1.5 document with its catalog/pages/font/page dicts packed in
    a compressed object stream extracts identically to the classic layout."""
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import extract_pdf_pages

    classic = extract_pdf_pages(make_pdf([TABLE_STREAM], compress=True))
    packed = extract_pdf_pages(make_pdf_objstm([TABLE_STREAM]))
    assert len(packed) == len(classic) == 1
    assert packed[0][0] == classic[0][0]     # identical word boxes
    assert packed[0][1] == classic[0][1]     # identical drawing rects


def test_object_stream_top_level_wins_on_conflict():
    """An object defined both top-level and inside an ObjStm resolves to
    the top-level definition (incremental-update replacement)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import (
        _expand_object_streams,
        _scan_objects,
    )

    comp = zlib.compress(b"7 0 " + b"<< /Marker /Old >>")
    pdf = (
        b"%PDF-1.5\n"
        b"50 0 obj\n<< /Type /ObjStm /N 1 /First 4 /Filter /FlateDecode "
        + f"/Length {len(comp)} >>".encode()
        + b"\nstream\n" + comp + b"\nendstream\nendobj\n"
        b"7 0 obj\n<< /Marker /New >>\nendobj\n"
    )
    objs = _expand_object_streams(_scan_objects(pdf))
    assert b"/New" in objs[7]


def test_rotated_text_matrix_places_words():
    """90°-rotated Tm: words must land at true device coordinates with a
    tall (vertical-run) bounding box, and scaled Tm must scale the box."""
    from cmc_knowledge_graph_text2ttl_ray.functions.pdf import extract_pdf_pages

    stream = b"""
BT /F1 12 Tf 0 1 -1 0 300 100 Tm (Rotated) Tj ET
BT /F1 12 Tf 2 0 0 2 100 500 Tm (Big) Tj ET
BT /F1 12 Tf 100 730 Td (Plain) Tj ET
"""
    pages = extract_pdf_pages(make_pdf([stream]))
    words = {w[4]: w for w in pages[0][0]}
    assert set(words) == {"Rotated", "Big", "Plain"}

    rx0, rtop, rx1, rbot, _ = words["Rotated"]
    # baseline runs UP the page from (300, 100): box is tall, not wide
    assert (rbot - rtop) > (rx1 - rx0)
    # x extent hugs the baseline x=300 (shifted left by the ascent)
    assert 285 <= rx0 <= rx1 <= 303
    # vertical extent starts at device y=100 → top-left y = 792 - y_max
    assert rbot == pytest.approx(792 - 100, abs=3)
    assert rtop < rbot - 30  # the word really extends upward

    bx0, btop, bx1, bbot, _ = words["Big"]
    px0, ptop, px1, pbot, _ = words["Plain"]
    # both strings render at 12pt, but Big's Tm doubles the glyph size:
    # its height must be ~2x Plain's
    assert (bbot - btop) == pytest.approx(2 * (pbot - ptop), rel=0.05)
    assert bx0 == pytest.approx(100, abs=1)
