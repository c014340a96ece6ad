"""Bait: stream handles acquired and never closed (REMO415)."""

import asyncio


async def leaky_client(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"ping")
    await writer.drain()
    return await reader.read(4)


async def leaky_server(handler, host, port):
    server = await asyncio.start_server(handler, host, port)
    await asyncio.sleep(1.0)
    return server.sockets[0].getsockname()


async def leaky_protocol_server(factory, host, port):
    server = await asyncio.get_running_loop().create_server(factory, host, port)
    await asyncio.sleep(1.0)
    return server.sockets[0].getsockname()
