"""Office/e-mail format extraction (docx/odt/rtf/eml) + pipeline wiring."""

import io
import zipfile

import pytest


def make_docx(paragraphs, table=None) -> bytes:
    ns = 'xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main"'
    body = []
    for p in paragraphs:
        body.append(f"<w:p><w:r><w:t>{p}</w:t></w:r></w:p>")
    if table:
        rows = []
        for row in table:
            cells = "".join(
                f"<w:tc><w:p><w:r><w:t>{c}</w:t></w:r></w:p></w:tc>"
                for c in row)
            rows.append(f"<w:tr>{cells}</w:tr>")
        body.append(f"<w:tbl>{''.join(rows)}</w:tbl>")
    xml = (f'<?xml version="1.0"?><w:document {ns}><w:body>'
           f"{''.join(body)}</w:body></w:document>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("[Content_Types].xml", "<Types/>")
        zf.writestr("word/document.xml", xml)
    return buf.getvalue()


def make_odt(paragraphs) -> bytes:
    ns = ('xmlns:office="urn:oasis:names:tc:opendocument:xmlns:office:1.0" '
          'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0"')
    ps = "".join(f"<text:p>{p}</text:p>" for p in paragraphs)
    xml = (f'<?xml version="1.0"?><office:document-content {ns}>'
           f"<office:body><office:text>{ps}</office:text></office:body>"
           f"</office:document-content>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("mimetype", "application/vnd.oasis.opendocument.text")
        zf.writestr("content.xml", xml)
    return buf.getvalue()


def make_xlsx(sheets, rich_shared=False) -> bytes:
    """sheets: list of (name, rows); rows: list of list of cell values —
    str → shared string, int/float → number, bool → boolean, None → cell
    skipped entirely (tests column-gap padding via explicit A1-style refs)."""
    shared: list[str] = []

    def sref(s: str) -> int:
        if s not in shared:
            shared.append(s)
        return shared.index(s)

    def col_letter(i: int) -> str:  # 1-based
        out = ""
        while i:
            i, r = divmod(i - 1, 26)
            out = chr(65 + r) + out
        return out

    ws_xmls = []
    for _, rows in sheets:
        body = []
        for ri, row in enumerate(rows, 1):
            cells = []
            for ci, v in enumerate(row, 1):
                if v is None:
                    continue
                ref = f"{col_letter(ci)}{ri}"
                if isinstance(v, bool):
                    cells.append(f'<c r="{ref}" t="b"><v>{int(v)}</v></c>')
                elif isinstance(v, str):
                    cells.append(f'<c r="{ref}" t="s"><v>{sref(v)}</v></c>')
                else:
                    cells.append(f'<c r="{ref}"><v>{v}</v></c>')
            body.append(f'<row r="{ri}">{"".join(cells)}</row>')
        ws_xmls.append(
            '<?xml version="1.0"?><worksheet xmlns="http://schemas.openxml'
            'formats.org/spreadsheetml/2006/main"><sheetData>'
            f'{"".join(body)}</sheetData></worksheet>')

    ns_main = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    ns_r = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
    sheet_els = "".join(
        f'<sheet name="{name}" sheetId="{i}" r:id="rId{i}"/>'
        for i, (name, _) in enumerate(sheets, 1))
    wb = (f'<?xml version="1.0"?><workbook xmlns="{ns_main}" '
          f'xmlns:r="{ns_r}"><sheets>{sheet_els}</sheets></workbook>')
    rels = "".join(
        f'<Relationship Id="rId{i}" Type="{ns_r}/worksheet" '
        f'Target="worksheets/sheet{i}.xml"/>'
        for i in range(1, len(sheets) + 1))
    rels_xml = ('<?xml version="1.0"?><Relationships xmlns="http://schemas.'
                'openxmlformats.org/package/2006/relationships">'
                f'{rels}</Relationships>')
    if rich_shared and shared:
        # first shared string becomes a rich-text run pair + phonetic guide
        first = shared[0]
        half = len(first) // 2
        sis = (f'<si><r><t>{first[:half]}</t></r><r><t>{first[half:]}</t>'
               f'</r><rPh sb="0" eb="1"><t>IGNORED</t></rPh></si>')
        sis += "".join(f"<si><t>{s}</t></si>" for s in shared[1:])
    else:
        sis = "".join(f"<si><t>{s}</t></si>" for s in shared)
    sst = (f'<?xml version="1.0"?><sst xmlns="{ns_main}" '
           f'count="{len(shared)}" uniqueCount="{len(shared)}">{sis}</sst>')
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("[Content_Types].xml", "<Types/>")
        zf.writestr("xl/workbook.xml", wb)
        zf.writestr("xl/_rels/workbook.xml.rels", rels_xml)
        zf.writestr("xl/sharedStrings.xml", sst)
        for i, x in enumerate(ws_xmls, 1):
            zf.writestr(f"xl/worksheets/sheet{i}.xml", x)
    return buf.getvalue()


def make_pptx(slides) -> bytes:
    """slides: list of (paragraph_list, table_rows_or_None)."""
    ns_a = "http://schemas.openxmlformats.org/drawingml/2006/main"
    ns_p = "http://schemas.openxmlformats.org/presentationml/2006/main"
    ns_r = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
    slide_xmls = []
    for paras, table in slides:
        body = "".join(
            f"<a:p><a:r><a:t>{t}</a:t></a:r></a:p>" for t in paras)
        tbl = ""
        if table:
            rows = "".join(
                "<a:tr>" + "".join(
                    f"<a:tc><a:txBody><a:p><a:r><a:t>{c}</a:t></a:r></a:p>"
                    "</a:txBody></a:tc>" for c in row) + "</a:tr>"
                for row in table)
            tbl = f"<a:tbl>{rows}</a:tbl>"
        slide_xmls.append(
            f'<?xml version="1.0"?><p:sld xmlns:p="{ns_p}" '
            f'xmlns:a="{ns_a}"><p:cSld><p:spTree><p:sp><p:txBody>{body}'
            f"</p:txBody></p:sp>{tbl}</p:spTree></p:cSld></p:sld>")
    sld_ids = "".join(
        f'<p:sldId id="{255 + i}" r:id="rId{i}"/>'
        for i in range(1, len(slides) + 1))
    pres = (f'<?xml version="1.0"?><p:presentation xmlns:p="{ns_p}" '
            f'xmlns:r="{ns_r}"><p:sldIdLst>{sld_ids}</p:sldIdLst>'
            "</p:presentation>")
    rels = "".join(
        f'<Relationship Id="rId{i}" Type="{ns_r}/slide" '
        f'Target="slides/slide{i}.xml"/>'
        for i in range(1, len(slides) + 1))
    rels_xml = ('<?xml version="1.0"?><Relationships xmlns="http://schemas.'
                'openxmlformats.org/package/2006/relationships">'
                f'{rels}</Relationships>')
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("[Content_Types].xml", "<Types/>")
        zf.writestr("ppt/presentation.xml", pres)
        zf.writestr("ppt/_rels/presentation.xml.rels", rels_xml)
        for i, x in enumerate(slide_xmls, 1):
            zf.writestr(f"ppt/slides/slide{i}.xml", x)
    return buf.getvalue()


RTF = (rb"{\rtf1\ansi{\fonttbl{\f0 Helvetica;}}"
       rb"{\*\generator Acme Writer;}"
       rb"\f0\fs24 Acme Corp was founded in \b 2008\b0 .\par "
       rb"Unicode: \u8364? and hex: \'e9.\par}")

EML = (b"From: alice@example.com\r\n"
       b"To: bob@example.com\r\n"
       b"Subject: Quarterly numbers\r\n"
       b"Content-Type: text/plain; charset=utf-8\r\n\r\n"
       b"Revenue was 42 in Q3.\r\n")


def test_docx_paragraphs_and_table():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import docx_to_text

    text = docx_to_text(make_docx(
        ["Acme Corp was founded in 2008.", "It is based in Berlin."],
        table=[["Name", "Value"], ["Revenue", "42"]]))
    assert "founded in 2008" in text
    assert "based in Berlin" in text
    assert "Name\tValue" in text and "Revenue\t42" in text


def test_odt_paragraphs():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import odt_to_text

    text = odt_to_text(make_odt(["Hooli LLC was founded in 1999.", "Next line."]))
    assert "founded in 1999" in text and "Next line." in text


def test_rtf_control_words_and_escapes():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import rtf_to_text

    text = rtf_to_text(RTF)
    assert "Acme Corp was founded in 2008." in text
    assert "€" in text and "é" in text
    assert "Helvetica" not in text and "generator" not in text


def test_eml_subject_and_body():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import eml_to_text

    text = eml_to_text(EML)
    assert text.startswith("Subject: Quarterly numbers")
    assert "Revenue was 42 in Q3." in text


def test_xlsx_sheets_tables_and_types():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import xlsx_to_text

    text = xlsx_to_text(make_xlsx([
        ("Revenue", [["Region", "Amount"], ["EMEA", 42], ["APAC", 3.5]]),
        ("Flags", [[True, False]]),
    ]))
    assert '<div class="sheet" name="Revenue">' in text
    assert '<div class="sheet" name="Flags">' in text
    # the PDF-recognizer grid shape: <table>/<tr>/<td><p>value</p>
    assert "<td><p>Region</p>\n</td>" in text
    assert "<td><p>42</p>\n</td>" in text and "<td><p>3.5</p>\n</td>" in text
    assert "<td><p>TRUE</p>\n</td>" in text and "<td><p>FALSE</p>" in text


def test_xlsx_column_gap_padding_and_rich_strings():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import xlsx_to_text

    # None skips the B1 cell entirely (writer emits A1, C1) → the rendered
    # row must pad an empty <td> so column walks stay aligned
    text = xlsx_to_text(make_xlsx([("S", [["left", None, "right"]])]))
    row = text[text.index("<tr>"):text.index("</tr>")]
    assert row.count("<td>") == 3
    assert "<td></td>" in row  # the padded gap
    assert row.index("left") < row.index("right")
    # rich-text shared string: runs concatenate, phonetic guide dropped
    text = xlsx_to_text(make_xlsx([("S", [["Grand Total", "x"]])],
                                  rich_shared=True))
    assert "Grand Total" in text and "IGNORED" not in text


def test_xlsx_match_dimensions_table_walk():
    """The whole point of the <table> shape: a match-dimensions workflow
    written for PDF tables walks a spreadsheet unchanged."""
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import xlsx_to_text
    from tests.test_interpreter import run

    text = xlsx_to_text(make_xlsx([
        ("Q3", [["Name", "Value"], ["Revenue", 42], ["Cost", 7]]),
    ]))
    res = run(
        [
            {
                "match-dimensions": [r"<tr>(.*?)</tr>", r"<td>(.*?)</td>"],
                "flags": "DOTALL",
                "dimensions": ["row", "col"],
                "as": "cell",
                "do": [{"match": r"<p>(.*?)</p>", "as": "v",
                        "do": [{"set": "cell-@{row}-@{col}", "to": "@{v.1}"}]}],
            },
        ],
        text=text,
    )
    assert res.variables["cell-1-1"] == "Name"
    assert res.variables["cell-2-2"] == "42"
    assert res.variables["cell-3-1"] == "Cost"


def test_pptx_slides_paragraphs_and_table():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import pptx_to_text

    text = pptx_to_text(make_pptx([
        (["Agenda", "Founded in 2008"], None),
        (["Numbers"], [["KPI", "Q3"], ["Revenue", "42"]]),
    ]))
    assert '<div class="slide" pageno="1">' in text
    assert '<div class="slide" pageno="2">' in text
    assert text.index("Agenda") < text.index("Numbers")  # deck order
    assert "<p>Founded in 2008</p>" in text
    assert "<td><p>Revenue</p>\n</td>" in text
    # table paragraphs must not double-emit outside the grid
    assert text.count("Revenue") == 1


def test_xlsx_pptx_dispatch_sniffing():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import (
        extract_document,
    )

    xlsx = make_xlsx([("S", [["hello"]])])
    pptx = make_pptx([(["world"], None)])
    assert "hello" in extract_document(xlsx, "book.xlsx")
    assert "world" in extract_document(pptx, "deck.pptx")
    # no extension → zip-member sniffing
    assert "hello" in extract_document(xlsx, "blob1")
    assert "world" in extract_document(pptx, "blob2")


def test_extract_document_dispatch_and_errors():
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import (
        DocFormatError,
        extract_document,
    )

    assert "founded" in extract_document(make_docx(["founded in 2008"]), "a.docx")
    # content sniffing without extension
    assert "founded" in extract_document(make_docx(["founded in 2008"]), "blob")
    assert "Subject:" in extract_document(EML, "mail.eml")
    with pytest.raises(DocFormatError):
        extract_document(b"\x00\x01 garbage", "mystery.bin")
    with pytest.raises(DocFormatError):
        extract_document(b"PK\x03\x04 not a zip really", "x.docx")


def test_docs_corpus_pipeline(ray_session, tmp_path):
    """End-to-end: a mixed docs dir through the extract stage feeds the KG
    pipeline (docx text must produce triples via the standard workflows)."""
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.stages.extract import add_extracted_text

    d = tmp_path / "docs"
    d.mkdir()
    (d / "a.docx").write_bytes(make_docx(
        ["Acme Corp was founded in 2008."]))
    (d / "b.rtf").write_bytes(RTF)
    (d / "c.eml").write_bytes(EML)
    (d / "d.xlsx").write_bytes(make_xlsx(
        [("Q3", [["Name", "Founded"], ["Acme Corp", 2008]])]))
    (d / "e.pptx").write_bytes(make_pptx(
        [(["Acme Corp was founded in 2008."], None)]))
    ds = ray.data.read_binary_files(str(d), include_paths=True).map_batches(
        lambda t: pa.table({"url": t["path"], "doc": t["bytes"]}),
        batch_format="pyarrow",
    )
    extracted = add_extracted_text(ds, source="doc").to_pandas()
    assert len(extracted) == 5
    assert extracted["extract_error"].isna().all()
    res = run_kg_pipeline(add_extracted_text(ds, source="doc"))
    assert res["triples"].count() >= 0  # pipeline runs end-to-end


def test_docs_corpus_cli_run(tmp_path):
    """End-to-end: a directory of office docs through `run --pages docs:DIR`."""
    import json
    import subprocess
    import sys

    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    for i in range(3):
        (docs_dir / f"report{i}.docx").write_bytes(make_docx(
            [f"Acme Corp was founded in 198{i}."]))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "run",
         "--pages", f"docs:{docs_dir}", "--out", str(out_dir),
         "--num-cpus", "4", "--num-buckets", "4"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["n_triples"] > 0
    ttls = list((out_dir / "ttl").glob("part-*.ttl"))
    assert ttls and any("Acme_Corp" in p.read_text() for p in ttls)


def test_rtf_unicode_ansi_fallback_consumed():
    """Round-3 review: the \\'hh ANSI fallback after \\uN is consumed as the
    skippable unit — no duplicate char, no swallowed following char."""
    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import rtf_to_text

    assert "Euro: €ABC" in rtf_to_text(b"{\\rtf1 Euro: \\u8364\\'80ABC\\par}")
    assert "X: €Y" in rtf_to_text(b"{\\rtf1 X: \\u8364?Y\\par}")
    # \uc2: two fallback units skipped
    assert "Z: €W" in rtf_to_text(b"{\\rtf1\\uc2 Z: \\u8364??W\\par}")


def test_docformats_never_crash_on_fuzz():
    """Contract: arbitrary bytes either extract or raise DocFormatError —
    never an unhandled exception (mirrors the PDF fuzz contract)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import (
        DocFormatError,
        extract_document,
        rtf_to_text,
    )

    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def run(payload):
        for name in ("x.docx", "x.odt", "x.eml", "x.xlsx", "x.pptx", "sniff"):
            try:
                out = extract_document(payload, name)
                assert isinstance(out, str)
            except DocFormatError:
                pass
        try:
            out = rtf_to_text(b"{\\rtf1" + payload + b"}")
            assert isinstance(out, str)
        except DocFormatError:
            pass

    run()


def test_rtf_fuzz_control_words():
    """RTF-shaped fuzz: random control words / groups / escapes parse to a
    string without crashing."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from cmc_knowledge_graph_text2ttl_ray.functions.docformats import rtf_to_text

    token = st.one_of(
        st.sampled_from([b"\\par ", b"\\tab ", b"\\u8364?", b"\\u-100?",
                         b"\\'e9", b"{", b"}", b"\\uc2 ", b"\\b ", b"\\b0 ",
                         b"{\\*\\weird junk}", b"\\\\", b"\\{", b"\\}"]),
        st.text(alphabet="abc XYZ09.,", max_size=12).map(lambda t: t.encode()),
    )

    @given(st.lists(token, max_size=40))
    @settings(max_examples=200, deadline=None)
    def run(parts):
        out = rtf_to_text(b"{\\rtf1" + b"".join(parts) + b"}")
        assert isinstance(out, str)

    run()
